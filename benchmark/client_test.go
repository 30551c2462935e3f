package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestDeltaLatencies(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	batches := []sentBatch{
		{sent: at(0), versions: map[string]uint64{"0": 7, "1": 3}},
		{sent: at(100), versions: map[string]uint64{"1": 4}}, // reached shard 1 only
		{sent: at(200), versions: map[string]uint64{"0": 8, "1": 5}},
	}
	events := []deltaEvent{
		{shard: "0", version: 6, recv: at(1)},   // registration snapshot: no batch
		{shard: "0", version: 7, recv: at(9)},   // batch 0
		{shard: "1", version: 3, recv: at(12)},  // batch 0, other shard
		{shard: "1", version: 3, recv: at(13)},  // a second query's delta for the same batch
		{shard: "1", version: 4, recv: at(105)}, // batch 1
		{shard: "0", version: 4, recv: at(106)}, // version 4 of shard 0 is nobody's
		{shard: "1", version: 5, recv: at(230)}, // batch 2
	}
	got := deltaLatenciesMS(batches, events)
	want := []float64{9, 12, 13, 5, 30}
	if len(got) != len(want) {
		t.Fatalf("latencies %v, want %v", got, want)
	}
	for i := range want {
		if !near(got[i], want[i]) {
			t.Errorf("latency %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestProcParsers(t *testing.T) {
	// A command name with spaces and parentheses must not shift fields.
	stat := "4242 (ildq serve) (x)) S 1 4242 4242 0 -1 4194560 5000 0 0 0 150 25 0 0 20 0 9 0 123456 1000000 2000 18446744073709551615"
	cpu, err := parseStatCPU(stat)
	if err != nil || cpu != 1750*time.Millisecond {
		t.Errorf("parseStatCPU = %v, %v; want 1.75s", cpu, err)
	}
	if _, err := parseStatCPU("garbage"); err == nil {
		t.Error("parseStatCPU accepted garbage")
	}
	rss, err := parseVmHWM("Name:\tildq-serve\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n")
	if err != nil || rss != 200<<20 {
		t.Errorf("parseVmHWM = %v, %v; want 200 MiB", rss, err)
	}
	if _, err := parseVmHWM("Name:\tx\n"); err == nil {
		t.Error("parseVmHWM accepted a status without VmHWM")
	}
}

// A fleet that cannot boot must hand back an error, not a crash, and
// leave nothing running or on disk.
func TestStartFleetFailure(t *testing.T) {
	data := filepath.Join(t.TempDir(), "data")
	if f, err := startFleet(filepath.Join(t.TempDir(), "no-such-bin"), data); err == nil {
		f.kill()
		t.Fatal("startFleet succeeded without binaries")
	}
	if _, err := os.Stat(data); !os.IsNotExist(err) {
		t.Errorf("data directory left behind: %v", err)
	}

	// Shard 0 exits at once, shard 1 would run for a minute: startFleet
	// must report the first and reap the second before it returns.
	bin := t.TempDir()
	script := "#!/bin/sh\ncase \"$*\" in *\"-shard-id 0\"*) exit 3;; esac\nexec sleep 60\n"
	if err := os.WriteFile(filepath.Join(bin, "ildq-serve"), []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := startFleet(bin, data)
	if err == nil || !strings.Contains(err.Error(), "shard 0 exited during boot") {
		t.Fatalf("startFleet with a dying shard: %v", err)
	}
	if d := time.Since(start); d > 20*time.Second {
		t.Errorf("startFleet took %v to give up: the surviving shard was waited for, not killed", d)
	}
}

func TestStartInprocFailure(t *testing.T) {
	// A file where the data directory should be.
	blocked := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocked, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if f, err := startInproc(blocked); err == nil {
		f.close()
		t.Fatal("startInproc succeeded on a file")
	}
}
