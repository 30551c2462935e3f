package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
)

// The box this benchmark runs on is a small shared VM, and what its
// host takes away comes in two kinds, both lasting from seconds to
// minutes: neighbours contending for memory (every process's CPU time
// and wall time per operation rise together, by 10-100%), and the
// hypervisor time-slicing the virtual CPUs (wall time doubles, CPU time
// hardly moves). No statistic over one run's windows survives a spell
// that outlasts the run, so the run carries a yardstick: a fixed piece
// of work, independent of the code under test, timed at every window
// boundary. A timed figure is then scaled by how long the yardstick
// took around its window relative to hostRefNominalMS — wall-clock
// figures by the yardstick's wall time, CPU figures by its CPU time.
//
// The yardstick is a pointer chase through a table far larger than the
// caches, on every core at once: like the fleet it is bound by memory
// latency and needs all the cores at the same time. Over the
// calibration series (README, "Noise") the logarithm of a window's
// latency regresses on the logarithm of the reading beside it with a
// slope of 0.8-1.2, which is what makes a plain ratio the right
// correction; a single-threaded chase has a slope of 1.3-1.5 and does
// not see a lost core at all. A reading also depends on how busy the
// cores were in the few hundred milliseconds before it (the host ramps
// its clocks), so take readings at the same points of every run.
const (
	hostRefTableBytes = 32 << 20
	hostRefSteps      = 150_000

	// hostRefNominalMS is what the yardstick takes, wall and CPU time per
	// core alike, on the quiet calibration box. It only fixes the scale:
	// scaled figures read as milliseconds of that box.
	hostRefNominalMS = 20.0
)

// hostRef is one reading of the yardstick, in ms.
type hostRef struct{ wall, cpu float64 }

// speedBetween is how much slower than nominal the host ran between two
// readings, for wall-clock and for CPU figures.
func speedBetween(a, b hostRef) (wall, cpu float64) {
	return (a.wall + b.wall) / 2 / hostRefNominalMS, (a.cpu + b.cpu) / 2 / hostRefNominalMS
}

// hostProbe owns the yardstick's table: one random cycle through all
// its slots, so every step is a dependent, cache-missing load.
type hostProbe struct {
	next []uint32
	sink uint32
}

func newHostProbe() *hostProbe {
	p := &hostProbe{next: make([]uint32, hostRefTableBytes/4)}
	for i := range p.next {
		p.next[i] = uint32(i)
	}
	// Sattolo's shuffle under a fixed generator: the same single cycle
	// in every run.
	x := uint64(0x9E3779B97F4A7C15)
	for i := len(p.next) - 1; i > 0; i-- {
		x = x*6364136223846793005 + 1442695040888963407
		j := int((x >> 33) % uint64(i))
		p.next[i], p.next[j] = p.next[j], p.next[i]
	}
	return p
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail with these arguments
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// read runs the chase on every core at once and reports how long the
// slowest took and the CPU time per core the process spent meanwhile.
// Nothing else of the generator runs during a reading.
func (p *hostProbe) read() hostRef {
	n := runtime.NumCPU()
	cpu0, t0 := selfCPU(), time.Now()
	var wg sync.WaitGroup
	ends := make([]uint32, n)
	for g := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			at := uint32(g * (len(p.next) / n))
			for range hostRefSteps {
				at = p.next[at]
			}
			ends[g] = at
		}()
	}
	wg.Wait()
	ref := hostRef{wall: ms(time.Since(t0)), cpu: ms(selfCPU()-cpu0) / float64(n)}
	for _, e := range ends {
		p.sink += e // keeps the chase from being optimised away
	}
	return ref
}
