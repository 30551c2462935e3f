package main

import (
	"regexp"
	"testing"
)

// TestManifestMatchesTable keeps BENCHMARK.json — what the driver
// reads — equal to the tables the program reports from, and inside the
// driver's limits.
func TestManifestMatchesTable(t *testing.T) {
	mf, err := readManifest("..")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || !unit.MatchString(u) {
			t.Errorf("name %q or unit %q is outside the driver's alphabet", n, u)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(mf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(mf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if mf.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, mf.Workloads[i].Name, w.name)
		}
		check(w.name, "count")
	}
	if len(mf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(mf.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		m := mf.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit {
			t.Errorf("end-to-end metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the program", i, m.Name, m.Unit, d.name, d.unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		check(d.name, d.unit)
	}
	if len(mf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(mf.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if m := mf.PerLayer[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per-layer metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the program", i, m.Name, m.Unit, d.name, d.unit)
		}
		check(d.name, d.unit)
	}
}
