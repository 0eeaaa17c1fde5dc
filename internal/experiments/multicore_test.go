package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/config"
)

// mcSpec is the short multicore comparison used by the golden and
// determinism tests: long enough for every policy to place tasks on a
// warmed die, short enough for the race detector.
func mcSpec(parallelism int) MulticoreSpec {
	s := Multicore(1_200_000, 4)
	s.Warmup = 20_000
	s.Seed = 7
	s.Parallelism = parallelism
	return s
}

// TestGoldenMulticoreShort pins the scheduler-comparison report bytes
// for a fixed short run, plus a full-precision SHA-256 of each
// scheduler's result. Regenerate deliberately with:
//
//	go test ./internal/experiments -run TestGoldenMulticoreShort -update
func TestGoldenMulticoreShort(t *testing.T) {
	m, err := RunMulticore(context.Background(), mcSpec(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "multicore_short.golden", m.Report())

	var sums strings.Builder
	for _, c := range m.Cells {
		sums.WriteString(digestLine(t, c.Scheduler.String(), c.R))
	}
	checkGolden(t, "multicore_short.sha256", sums.String())
}

// TestMulticoreMatrixParallelDeterminism mirrors TestParallelDeterminism
// for the multicore family: the comparison report must be byte-identical
// at every worker count.
func TestMulticoreMatrixParallelDeterminism(t *testing.T) {
	serial, err := RunMulticore(context.Background(), mcSpec(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunMulticore(context.Background(), mcSpec(8), nil)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := serial.Report(), par.Report(); a != b {
		t.Errorf("parallel multicore matrix diverged from serial\n--- serial ---\n%s--- parallel ---\n%s", a, b)
	}
}

// TestMulticoreMatrixShape: default spec compares all four policies on
// identical work, and the report carries the headline gap line.
func TestMulticoreMatrixShape(t *testing.T) {
	spec := mcSpec(0)
	spec.Schedulers = []config.Scheduler{config.SchedRoundRobin, config.SchedCoolestFirst}
	m, err := RunMulticore(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(m.Cells))
	}
	rr, cf := m.Get(config.SchedRoundRobin), m.Get(config.SchedCoolestFirst)
	if rr == nil || cf == nil {
		t.Fatal("missing scheduler results")
	}
	if rr.TasksTotal != cf.TasksTotal || rr.Seed != cf.Seed {
		t.Fatal("schedulers did not see identical work")
	}
	if m.Get(config.SchedRandom) != nil {
		t.Fatal("Get returned a result for a policy that did not run")
	}
}
