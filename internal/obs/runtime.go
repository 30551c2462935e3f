package obs

import "runtime/metrics"

// heapLiveMetric is the runtime/metrics key of the heap bytes the last
// garbage collection marked live.
const heapLiveMetric = "/gc/heap/live:bytes"

// HeapLiveGauge registers go_gc_heap_live_bytes: the heap bytes the
// last garbage collection marked live (runtime/metrics
// /gc/heap/live:bytes) — what the process's data holds, without the
// garbage allocated since or the memory the runtime keeps mapped — so
// a change in a process's resident memory can be told apart from a
// change in what it stores.
func (r *Registry) HeapLiveGauge() {
	r.GaugeFunc("go_gc_heap_live_bytes",
		"Heap bytes the last garbage collection marked live (runtime/metrics "+heapLiveMetric+").",
		heapLiveBytes)
}

func heapLiveBytes() float64 {
	s := [1]metrics.Sample{{Name: heapLiveMetric}}
	metrics.Read(s[:])
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64())
}
