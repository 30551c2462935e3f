package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Label is one metric dimension. Values are free-form strings; names
// must match the Prometheus label charset.
type Label struct {
	Name  string
	Value string
}

// series is one (labelset -> value) inside a family. Exactly one of
// value/hist is set.
type series struct {
	labels []Label // sorted by name
	key    string
	value  func() float64
	hist   *Histogram
}

// family is one exposition family: a name, HELP/TYPE metadata, and
// either a static series list or a collect callback producing the
// series at scrape time (used for dynamic sets such as per-query
// metrics, where the members change between scrapes).
type family struct {
	name    string
	help    string
	typ     string // "counter" | "gauge" | "histogram"
	series  []*series
	collect func(emit func(v float64, labels ...Label))
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format (version 0.0.4). Registration is expected at
// startup and panics on invalid names, duplicate series, or type
// conflicts — a malformed registration is a bug, not a runtime
// condition. Reads of the registered instruments happen lock-free; the
// registry mutex only guards the family table itself.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
	// reserved maps names claimed as derived families (histogram
	// _bucket/_sum/_count/_summary offspring) to the owning base name.
	reserved map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byName:   make(map[string]*family),
		reserved: make(map[string]string),
	}
}

// Counter registers (or extends) a counter family and returns the
// instrument for the given labelset.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.addSeries(name, help, "counter", func() float64 { return float64(c.Value()) }, nil, labels)
	return c
}

// CounterFunc registers a counter series whose value is read from fn
// at scrape time (for counts already maintained elsewhere as atomics).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.addSeries(name, help, "counter", fn, nil, labels)
}

// GaugeFunc registers a gauge series read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.addSeries(name, help, "gauge", fn, nil, labels)
}

// Histogram registers a histogram family/series with the given bucket
// bounds and returns the instrument.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	h := NewHistogram(bounds)
	r.RegisterHistogram(name, help, h, labels...)
	return h
}

// RegisterHistogram attaches an existing histogram (built ahead of the
// registry, e.g. inside the engine) as a series of the named family.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram, labels ...Label) {
	if h == nil {
		panic("obs: RegisterHistogram with nil histogram")
	}
	for _, l := range labels {
		if l.Name == "le" {
			panic("obs: histogram series may not carry an 'le' label")
		}
	}
	r.addSeries(name, help, "histogram", nil, h, labels)
}

// CounterSet registers a dynamic counter family: collect is invoked at
// scrape time and emits one series per call to its emit argument.
// Duplicate labelsets within one scrape are dropped (first wins) so a
// racy collector cannot emit an invalid exposition.
func (r *Registry) CounterSet(name, help string, collect func(emit func(v float64, labels ...Label))) {
	r.addCollector(name, help, "counter", collect)
}

// GaugeSet registers a dynamic gauge family (see CounterSet).
func (r *Registry) GaugeSet(name, help string, collect func(emit func(v float64, labels ...Label))) {
	r.addCollector(name, help, "gauge", collect)
}

func (r *Registry) addCollector(name, help, typ string, collect func(emit func(v float64, labels ...Label))) {
	if collect == nil {
		panic("obs: nil collector for " + name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, typ)
	if len(f.series) > 0 || f.collect != nil {
		panic("obs: collector family " + name + " registered twice or mixed with static series")
	}
	f.collect = collect
}

func (r *Registry) addSeries(name, help, typ string, fn func() float64, h *Histogram, labels []Label) {
	validateLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, typ)
	if f.collect != nil {
		panic("obs: family " + name + " already registered as a collector")
	}
	key := sortedLabelKey(labels)
	for _, s := range f.series {
		if s.key == key {
			panic(fmt.Sprintf("obs: duplicate series %s{%s}", name, key))
		}
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	f.series = append(f.series, &series{labels: ls, key: key, value: fn, hist: h})
}

// familyLocked returns the family for name, creating it on first use
// and enforcing name validity, type/help consistency, and the derived
// suffix reservations for histograms.
func (r *Registry) familyLocked(name, help, typ string) *family {
	if !ValidMetricName(name) {
		panic("obs: invalid metric name " + strconv.Quote(name))
	}
	if owner, clash := r.reserved[name]; clash {
		panic("obs: metric name " + name + " collides with series derived from histogram " + owner)
	}
	if f, ok := r.byName[name]; ok {
		if f.typ != typ {
			panic(fmt.Sprintf("obs: %s registered as %s and %s", name, f.typ, typ))
		}
		if f.help != help {
			panic("obs: conflicting HELP for " + name)
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ}
	r.byName[name] = f
	r.fams = append(r.fams, f)
	if typ == "histogram" {
		for _, suf := range []string{"_bucket", "_sum", "_count", "_summary"} {
			derived := name + suf
			if _, taken := r.byName[derived]; taken {
				panic("obs: histogram " + name + " derived name " + derived + " already registered")
			}
			r.reserved[derived] = name
		}
	}
	return f
}

// summaryQuantiles are the quantiles derived from histogram buckets in
// the exposition (the "<name>_summary" summary family).
var summaryQuantiles = []float64{0.5, 0.9, 0.99}

// WriteText renders every family in the Prometheus text exposition
// format: # HELP / # TYPE per family, then one line per series.
// Histogram families emit cumulative _bucket series, _sum and _count,
// followed by a derived "<name>_summary" summary family whose
// quantiles are interpolated from the buckets.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.fams))
	copy(fams, r.fams)
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	var scratch []int64
	for _, f := range fams {
		if err := writeHeader(bw, f.name, f.help, f.typ); err != nil {
			return err
		}
		if f.collect != nil {
			seen := make(map[string]bool)
			f.collect(func(v float64, labels ...Label) {
				key := sortedLabelKey(labels)
				if seen[key] {
					return
				}
				seen[key] = true
				fmt.Fprintf(bw, "%s%s %s\n", f.name, renderLabels(labels, "", ""), formatFloat(v))
			})
			continue
		}
		for _, s := range f.series {
			if s.hist == nil {
				fmt.Fprintf(bw, "%s%s %s\n", f.name, renderLabels(s.labels, "", ""), formatFloat(s.value()))
			}
		}
		for _, s := range f.series {
			if s.hist != nil {
				scratch = writeHistogram(bw, f.name, s, scratch)
			}
		}
		// Derived summary family for histograms.
		if f.typ == "histogram" {
			sname := f.name + "_summary"
			if err := writeHeader(bw, sname, f.help+" (quantiles derived from buckets)", "summary"); err != nil {
				return err
			}
			for _, s := range f.series {
				if s.hist == nil {
					continue
				}
				for _, q := range summaryQuantiles {
					v := s.hist.Quantile(q)
					fmt.Fprintf(bw, "%s%s %s\n", sname,
						renderLabels(s.labels, "quantile", formatFloat(q)), formatFloat(v))
				}
				fmt.Fprintf(bw, "%s_sum%s %s\n", sname, renderLabels(s.labels, "", ""), formatFloat(s.hist.Sum()))
				fmt.Fprintf(bw, "%s_count%s %d\n", sname, renderLabels(s.labels, "", ""), s.hist.Count())
			}
		}
	}
	return bw.Flush()
}

func writeHeader(w io.Writer, name, help, typ string) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(help)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
	return err
}

// writeHistogram emits the cumulative buckets, _sum, and _count for one
// histogram series. The scratch slice is reused across series.
func writeHistogram(w io.Writer, name string, s *series, scratch []int64) []int64 {
	scratch = s.hist.snapshotCounts(scratch)
	bounds := s.hist.Bounds()
	var cum int64
	for i, b := range bounds {
		cum += scratch[i]
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, renderLabels(s.labels, "le", formatFloat(b)), cum)
	}
	cum += scratch[len(bounds)]
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, renderLabels(s.labels, "le", "+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, renderLabels(s.labels, "", ""), formatFloat(s.hist.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, renderLabels(s.labels, "", ""), cum)
	return scratch
}

// renderLabels renders {a="x",b="y"} with an optional extra label
// appended (le/quantile); returns "" for an empty set.
func renderLabels(labels []Label, extraName, extraValue string) string {
	if len(labels) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString("=\"")
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString("=\"")
		b.WriteString(escapeLabelValue(extraValue))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// ValidMetricName reports whether name matches the Prometheus metric
// name charset [a-zA-Z_:][a-zA-Z0-9_:]*.
func ValidMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// ValidLabelName reports whether name matches [a-zA-Z_][a-zA-Z0-9_]*.
func ValidLabelName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validateLabels(labels []Label) {
	for _, l := range labels {
		if !ValidLabelName(l.Name) {
			panic("obs: invalid label name " + strconv.Quote(l.Name))
		}
	}
}
