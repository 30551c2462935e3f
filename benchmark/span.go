package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Span names. The traced run keeps one operation in flight, so spans
// nest by time: client ⊃ router ⊃ hop (one per shard call) ⊃ serve
// ⊃ core.* (the engine's own obs stages).
const (
	spanClient = "client"
	spanRouter = "router"
	spanHop    = "hop"
	spanServe  = "serve"
)

// span is one recorded interval. Start and End are nanoseconds since
// the recorder was made; Parent is the index of the enclosing span in
// the recorder's list, -1 for a client span.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Shard  int    `json:"shard"` // -1 on client and router spans
	Path   string `json:"path,omitempty"`
	// Counts taken at the same boundary as the span.
	ReqBytes  int `json:"req_bytes,omitempty"`
	RespBytes int `json:"resp_bytes,omitempty"`
	// EvalMS is the evaluation time the layer below reported in its
	// reply (cost.duration_ms): on a serve span the shard engine's, on
	// a router span the router-side NN refinement's.
	EvalMS float64 `json:"eval_ms,omitempty"`

	// body holds a reply until the operation ends, so parsing it does
	// not run inside anyone's span.
	body []byte
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder collects spans in memory. It is on only while a traced
// operation runs; off, begin returns -1 and the wrappers add nothing
// but a branch.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	idle  sync.Cond // signalled when the last open span closes
	on    bool
	op    int
	nOpen int
	spans []span
	open  map[string]int // innermost open span per layer (hops: per shard)
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now(), open: map[string]int{}}
	r.idle.L = &r.mu
	return r
}

// startOp turns recording on for operation op (numbered from 1) and
// returns the index its first span will get.
func (r *recorder) startOp(op int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.on, r.op = true, op
	return len(r.spans)
}

// endOp turns recording off once every span of the operation has
// closed: a server-side wrapper may still be finishing when the client
// already holds the reply.
func (r *recorder) endOp() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.nOpen > 0 {
		r.idle.Wait()
	}
	r.on, r.op = false, 0
}

// currentOp is the operation in flight, 0 between operations.
func (r *recorder) currentOp() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.op
}

// begin opens a span and returns its index and operation, or -1 while
// recording is off. The parent is the innermost open span of the
// enclosing layer.
func (r *recorder) begin(name string, shard int, path string) (id, op int) {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.on {
		return -1, 0
	}
	parent, key := -1, name
	switch name {
	case spanRouter:
		parent = r.open[spanClient]
	case spanHop:
		parent, key = r.open[spanRouter], spanHop+strconv.Itoa(shard)
	case spanServe:
		parent = r.open[spanHop+strconv.Itoa(shard)]
	}
	r.spans = append(r.spans, span{Name: name, Op: r.op, Start: now, Parent: parent, Shard: shard, Path: path})
	r.open[key] = len(r.spans) - 1
	r.nOpen++
	return len(r.spans) - 1, r.op
}

// end closes span id (a no-op for -1) and lets fill add what was
// counted at the boundary.
func (r *recorder) end(id int, fill func(*span)) {
	if id < 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = now
	if fill != nil {
		fill(&r.spans[id])
	}
	if r.nOpen--; r.nOpen == 0 {
		r.idle.Broadcast()
	}
}

// add records a finished child span (an engine stage).
func (r *recorder) add(s span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
}

// writeJSONL writes every span, one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// interval is a half-open time interval in nanoseconds.
type interval struct{ lo, hi int64 }

// unionLen is the total length covered by the intervals, overlaps
// counted once.
func unionLen(ivs []interval) int64 {
	ivs = append([]interval(nil), ivs...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, hi int64
	first := true
	for _, iv := range ivs {
		if iv.hi <= iv.lo {
			continue
		}
		switch {
		case first || iv.lo >= hi:
			total += iv.hi - iv.lo
			hi, first = iv.hi, false
		case iv.hi > hi:
			total += iv.hi - hi
			hi = iv.hi
		}
	}
	return total
}

// covered is the length of the part of s its children cover; children
// are clipped to s first.
func covered(s interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		clipped = append(clipped, interval{max(c.lo, s.lo), min(c.hi, s.hi)})
	}
	return unionLen(clipped)
}

// selfTime is a span's duration minus the part of it its children
// cover.
func selfTime(s interval, children []interval) int64 {
	return (s.hi - s.lo) - covered(s, children)
}
