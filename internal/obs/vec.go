package obs

import (
	"strconv"
	"strings"
	"sync"
)

// The Vec instruments cover families whose label values are only known
// at runtime — e.g. the shard router's per-shard counters
// (ildq_router_shard_requests_total{shard="2"}). The label *names* are
// fixed
// at registration; each distinct value tuple lazily materialises one
// series in the family via the registry's normal addSeries path, so
// exposition, duplicate detection, and type checking are shared with
// statically registered series.
//
// With on each vec is get-or-create and safe for concurrent use. Label
// value cardinality is expected to be small and bounded (shard ids,
// request kinds); every distinct tuple stays registered for the life of
// the registry.

// CounterVec is a counter family keyed by runtime label values.
type CounterVec struct {
	vec vec
}

// HistogramVec is a histogram family keyed by runtime label values.
type HistogramVec struct {
	vec    vec
	bounds []float64
}

// vec holds the shared get-or-create machinery.
type vec struct {
	r     *Registry
	name  string
	help  string
	names []string // label names, registration order

	mu   sync.Mutex
	inst map[string]any // joined label values -> *Counter / *Histogram
}

// CounterVec registers a counter family whose series are created on
// first use per label-value tuple. Panics on invalid names, just like
// static registration.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{vec: newVec(r, name, help, labelNames)}
}

// HistogramVec registers a histogram family with runtime label values;
// every series shares the same bucket bounds.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labelNames ...string) *HistogramVec {
	return &HistogramVec{vec: newVec(r, name, help, labelNames), bounds: bounds}
}

func newVec(r *Registry, name, help string, labelNames []string) vec {
	if len(labelNames) == 0 {
		panic("obs: vec family " + name + " needs at least one label name")
	}
	for _, n := range labelNames {
		if !ValidLabelName(n) {
			panic("obs: invalid label name " + strconv.Quote(n))
		}
	}
	names := make([]string, len(labelNames))
	copy(names, labelNames)
	return vec{r: r, name: name, help: help, names: names, inst: make(map[string]any)}
}

// With returns the counter for the given label values (one per label
// name, in registration order), creating its series on first use.
func (v *CounterVec) With(values ...string) *Counter {
	return v.vec.get(values, func(labels []Label) any {
		c := &Counter{}
		v.vec.r.addSeries(v.vec.name, v.vec.help, "counter",
			func() float64 { return float64(c.Value()) }, nil, labels)
		return c
	}).(*Counter)
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.vec.get(values, func(labels []Label) any {
		h := NewHistogram(v.bounds)
		v.vec.r.addSeries(v.vec.name, v.vec.help, "histogram", nil, h, labels)
		return h
	}).(*Histogram)
}

func (v *vec) get(values []string, create func(labels []Label) any) any {
	if len(values) != len(v.names) {
		panic("obs: vec " + v.name + " called with " + strconv.Itoa(len(values)) +
			" label values, want " + strconv.Itoa(len(v.names)))
	}
	key := strings.Join(values, "\x00")
	v.mu.Lock()
	defer v.mu.Unlock()
	if inst, ok := v.inst[key]; ok {
		return inst
	}
	labels := make([]Label, len(values))
	for i, val := range values {
		labels[i] = Label{Name: v.names[i], Value: val}
	}
	inst := create(labels)
	v.inst[key] = inst
	return inst
}
