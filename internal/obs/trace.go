package obs

import (
	"context"
	"time"
)

// Trace is a lightweight per-request trace recording the cost stages
// the paper's evaluation decomposes: snapshot pin, index filter
// (R-tree/PTI node accesses), candidate pruning, Monte-Carlo
// refinement (samples, early-stop reason), and merge.
//
// A trace belongs to one request on one goroutine: the evaluation
// paths record into it without synchronization (parallel refinement
// workers report their tallies back to the coordinating goroutine,
// which owns the trace). Attach one with WithTrace; evaluation paths
// fetch it with TraceFrom and record through SpanRef, whose methods
// are nil-receiver-safe no-ops — the untraced hot path pays one
// context lookup and a handful of predictable nil checks, nothing
// more.
type Trace struct {
	// ID tags the trace in logs (the server uses its request id).
	ID    string
	start time.Time
	spans []Span
}

// Span is one recorded stage.
type Span struct {
	// Name is the stage: "pin", "filter", "prune", "refine", "merge",
	// or "scan" for the interleaved points path.
	Name string
	// Start is the offset from the trace start.
	Start time.Duration
	// Duration is how long the stage ran (zero until End).
	Duration time.Duration
	// NodeAccesses counts index nodes touched during the stage.
	NodeAccesses int64
	// Samples counts Monte-Carlo samples drawn during the stage.
	Samples int64
	// Items is a stage-specific cardinality: candidates out of the
	// filter, survivors out of pruning, matches out of the merge.
	Items int
	// Note is a short free-form annotation (e.g. the refinement
	// early-stop reason).
	Note string
}

// NewTrace starts a trace. Span storage is preallocated for the usual
// stage count so recording does not allocate.
func NewTrace(id string) *Trace {
	return &Trace{ID: id, start: time.Now(), spans: make([]Span, 0, 8)}
}

// Spans returns the recorded spans in start order. The returned slice
// aliases the trace's storage; callers must not record concurrently.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// SpanRef addresses one span inside a trace. It is a two-word value —
// passing it around does not allocate — and every method tolerates the
// zero SpanRef (returned by StartSpan on a nil trace), which is how
// the untraced path stays free.
type SpanRef struct {
	t *Trace
	i int
}

// StartSpan opens a new span. On a nil trace it returns the zero
// SpanRef and records nothing.
func (t *Trace) StartSpan(name string) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	t.spans = append(t.spans, Span{Name: name, Start: time.Since(t.start)})
	return SpanRef{t: t, i: len(t.spans) - 1}
}

// End closes the span, fixing its duration.
func (s SpanRef) End() {
	if s.t == nil {
		return
	}
	sp := &s.t.spans[s.i]
	sp.Duration = time.Since(s.t.start) - sp.Start
}

// AddNodes adds index node accesses to the span.
func (s SpanRef) AddNodes(n int64) {
	if s.t == nil {
		return
	}
	s.t.spans[s.i].NodeAccesses += n
}

// AddSamples adds Monte-Carlo samples to the span.
func (s SpanRef) AddSamples(n int64) {
	if s.t == nil {
		return
	}
	s.t.spans[s.i].Samples += n
}

// SetItems sets the span's cardinality.
func (s SpanRef) SetItems(n int) {
	if s.t == nil {
		return
	}
	s.t.spans[s.i].Items = n
}

// SetNote sets the span's annotation. Callers that would format the
// note should guard on Active to keep fmt off the untraced path.
func (s SpanRef) SetNote(note string) {
	if s.t == nil {
		return
	}
	s.t.spans[s.i].Note = note
}

// Active reports whether the ref records into a real trace.
func (s SpanRef) Active() bool { return s.t != nil }

// traceKey is the context key for the attached trace.
type traceKey struct{}

// WithTrace attaches t to the context.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the attached trace, or nil — and nil is the
// expected case: every recording method downstream is nil-safe, so
// callers use the result unconditionally.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}
