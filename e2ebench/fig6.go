package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/sim"
)

// The fig6 matrix: hot benchmarks on which activity toggling engages at
// this length, and cool ones on which DTM stays idle. experiments.Run
// takes no seed, so this workload ignores --seed.
var (
	fig6Hot  = []string{"eon", "perlbmk", "gzip"}
	fig6Cool = []string{"art", "mcf"}
)

const fig6Cycles = 1_000_000

func fig6Spec(par int) experiments.Spec {
	s := experiments.Fig6(fig6Cycles, append(append([]string{}, fig6Hot...), fig6Cool...)...)
	s.Parallelism = par
	return s
}

func runFig6(o options, t *tally) (metrics, error) {
	spec := fig6Spec(o.par)
	if o.trace {
		return traceFig6(o, t, spec)
	}
	setup, err := fig6Setup(spec)
	if err != nil {
		return nil, err
	}
	var walls, rates, mips []float64
	start := time.Now()
	for len(rates) == 0 || time.Since(start) < o.duration {
		var mat *experiments.Matrix
		wall := timeIt(func() { mat, err = experiments.Run(context.Background(), spec, nil) }).Seconds()
		if err != nil {
			return nil, err
		}
		t.check(checkFig6(mat))
		walls = append(walls, 1000*wall)
		rates = append(rates, float64(len(mat.Cells))/wall)
		mips = append(mips, committedMinst(mat)/wall)
	}
	m := metrics{}
	m.set("setup_s", "s", setup)
	m.set("peak_rss_mb", "MiB", peakRSSMiB())
	m.set("ops_per_s", "1/s", median(rates))
	m.set("sim_mips", "Minst/s", median(mips))
	m.set("request_p50_ms", "ms", median(walls))
	return m, nil
}

// fig6Setup is the median time to build the matrix's simulators — the
// per-cell set-up that precedes warmup.
func fig6Setup(spec experiments.Spec) (float64, error) {
	var times []float64
	for k := 0; k < 61; k++ {
		var err error
		d := timeIt(func() {
			for _, b := range spec.Benchmarks {
				for _, v := range spec.Variants {
					if _, err = sim.NewByName(cellConfig(spec, v), b); err != nil {
						return
					}
				}
			}
		})
		if err != nil {
			return 0, err
		}
		times = append(times, d.Seconds())
	}
	return median(times), nil
}

func cellConfig(spec experiments.Spec, v experiments.Variant) *config.Config {
	cfg := config.Default()
	cfg.Plan = spec.Plan
	cfg.Techniques = v.Tech
	return cfg
}

func committedMinst(mat *experiments.Matrix) float64 {
	var n uint64
	for _, c := range mat.Cells {
		n += c.R.Committed
	}
	return float64(n) / 1e6
}

// checkFig6 holds the matrix to its pinned digest and to the workload's
// premise: DTM acts on every hot toggling cell and never on a cool cell.
func checkFig6(mat *experiments.Matrix) error {
	b, err := json.Marshal(mat.Cells)
	if err != nil {
		return err
	}
	if got := digest(b); got != pinnedFig6 {
		return fmt.Errorf("fig6 matrix: %w: %s", errDigest, got)
	}
	for _, c := range mat.Cells {
		acts := dtmActions(c.R)
		switch {
		case contains(fig6Cool, c.Benchmark) && acts != 0:
			return fmt.Errorf("fig6 %s/%s: %d DTM actions on a cool cell", c.Benchmark, c.Variant, acts)
		case contains(fig6Hot, c.Benchmark) && c.Variant != "base" && c.R.IntToggles+c.R.FPToggles == 0:
			return fmt.Errorf("fig6 %s/%s: no toggling on a hot cell", c.Benchmark, c.Variant)
		}
	}
	return nil
}

func dtmActions(r *sim.Result) uint64 {
	return r.Stalls + r.IntToggles + r.FPToggles + r.ALUTurnoffs + r.RFCopyTurnoffs
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if x == y {
			return true
		}
	}
	return false
}

// tracedCell is one cell rebuilt from the pieces sim's run loop is made
// of, with a span around every call and every interval.
type tracedCell struct {
	tr          *spanTrace
	r           *sim.Result
	cycles      int64 // total cycles, stalls included
	stallCycles int64
	start       time.Duration // cell start within the pass
}

// traceFig6 runs an untraced reference matrix, the traced replica of
// the same matrix, and a profiled matrix, each separately.
func traceFig6(o options, t *tally, spec experiments.Spec) (metrics, error) {
	var ref *experiments.Matrix
	var wallRef time.Duration
	alloc, gcs, err := goCost(func() (err error) {
		wallRef = timeIt(func() { ref, err = experiments.Run(context.Background(), spec, nil) })
		return err
	})
	if err != nil {
		return nil, err
	}
	t.check(checkFig6(ref))

	nv := len(spec.Variants)
	cells := make([]tracedCell, len(ref.Cells))
	t0 := time.Now()
	err = runner.Run(context.Background(), spec.Parallelism, len(cells), func(i int) error {
		return traceCell(spec, spec.Benchmarks[i/nv], spec.Variants[i%nv], t0, &cells[i])
	})
	wallTraced := time.Since(t0)
	if err != nil {
		return nil, err
	}

	m := metrics{}
	var trs []*spanTrace
	var cellSum, warmSum time.Duration
	var lastStart time.Duration
	minCover := 1.0
	var nsPerCycle []float64
	interval := float64(config.Default().SensorIntervalCycles)
	for i, c := range cells {
		trs = append(trs, c.tr)
		t.check(sameCell(ref.Cells[i].R, &c))
		cover := c.tr.coverage(0)
		t.check(coverageOK(c.tr.ID, cover))
		minCover = min(minCover, cover)
		cellSum += c.tr.Spans[0].dur()
		warmSum += sumDur(c.tr.durations("pipeline.warmup"))
		lastStart = max(lastStart, c.start)
		for _, d := range c.tr.durations("pipeline.cycle") {
			nsPerCycle = append(nsPerCycle, float64(d)/interval)
		}
	}
	m.set("sim.new_ms", "ms", median(ms(allDurations(trs, "sim.new"))))
	m.set("pipeline.warmup_share", "frac", float64(warmSum)/float64(cellSum))
	m.set("pipeline.ns_per_cycle", "ns", median(nsPerCycle))
	m.set("power.drain_us", "us", median(us(allDurations(trs, "power.drain"))))
	m.set("thermal.advance_us", "us", median(us(allDurations(trs, "thermal.advance"))))
	m.set("thermal.warmstart_ms", "ms", median(ms(allDurations(trs, "thermal.warmstart"))))
	m.set("core.control_us", "us", median(us(allDurations(trs, "core.control"))))
	m.set("runner.busy_frac", "frac", float64(cellSum)/(float64(wallTraced)*float64(spec.Parallelism)))
	m.set("runner.tail_idle_s", "s", (wallTraced - lastStart).Seconds())
	m.set("tracing.overhead_frac", "frac", float64(wallTraced)/float64(wallRef)-1)
	m.set("tracing.span_coverage", "frac", minCover)
	var stallCycles, acts float64
	for _, c := range ref.Cells {
		stallCycles += float64(c.R.StallCycles)
		acts += float64(dtmActions(c.R))
	}
	m.set("sim.committed_minst", "Minst", committedMinst(ref))
	m.set("sim.stall_cycles", "cycles", stallCycles)
	m.set("core.dtm_actions", "count", acts)
	m.set("go.gc_cycles", "count", gcs)
	m.set("go.alloc_kb_per_op", "KiB/op", alloc/float64(len(ref.Cells)))
	if err := dumpSpans(o.scratch, "fig6_matrix", trs); err != nil {
		return nil, err
	}

	prof, err := profileRun(o.scratch, func() error {
		mat, err := experiments.Run(context.Background(), spec, nil)
		if err == nil {
			t.check(checkFig6(mat))
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	for k, v := range prof {
		m[k] = v
	}
	return m, nil
}

func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func coverageOK(id string, cover float64) error {
	if cover < 0.95 {
		return fmt.Errorf("%s: spans cover %.1f%% of the traced unit, want >= 95%%", id, 100*cover)
	}
	return nil
}

// traceCell replays the cell body of experiments.Run and the protocol
// of sim's run loop — architectural warmup, four power-measurement
// intervals, the thermal warm start below threshold, then execution
// under DTM with cooling stalls — through exported calls only.
func traceCell(spec experiments.Spec, bench string, v experiments.Variant, t0 time.Time, out *tracedCell) error {
	tr := newTrace(bench+"/"+v.Name, t0)
	root := tr.begin("cell", -1)
	cfg := cellConfig(spec, v)
	k := tr.begin("sim.new", root)
	s, err := sim.NewByName(cfg, bench)
	tr.end(k)
	if err != nil {
		return err
	}
	s.WarmupInstructions = spec.Warmup
	k = tr.begin("pipeline.warmup", root)
	s.WarmupArch()
	tr.end(k)

	interval := cfg.SensorIntervalCycles
	secPerCycle := cfg.ThermalSecondsPerCycle()
	nb := s.Plan.NumBlocks()
	pow, temps := make([]float64, nb), make([]float64, nb)
	var cycles, stallCycles int64
	step := func() []float64 {
		k := tr.begin("pipeline.cycle", root)
		for j := 0; j < interval; j++ {
			s.Pipe.Cycle()
		}
		tr.end(k)
		cycles += int64(interval)
		k = tr.begin("power.drain", root)
		p := s.Meter.Drain(interval, 0, pow)
		tr.end(k)
		return p
	}

	warmPow := make([]float64, nb)
	warmed := 0
	for j := 0; j < 4 && cycles < spec.Cycles; j++ {
		for b, p := range step() {
			warmPow[b] += p
		}
		warmed++
	}
	if warmed > 0 {
		for b := range warmPow {
			warmPow[b] /= float64(warmed)
		}
		k = tr.begin("thermal.warmstart", root)
		warmStartBelowThreshold(s, warmPow)
		tr.end(k)
	}

	for cycles < spec.Cycles {
		if s.Mgr.DVFSActive() {
			return fmt.Errorf("%s: the traced replica does not model DVFS", tr.ID)
		}
		s.Meter.SetEnergyScale(1)
		p := step()
		k = tr.begin("thermal.advance", root)
		s.Th.Advance(p, float64(interval)*secPerCycle)
		tr.end(k)
		k = tr.begin("core.control", root)
		stall := s.SenseExternal(s.Th.Temps(temps))
		tr.end(k)
		if stall == 0 {
			continue
		}
		k = tr.begin("sim.cooling_stall", root)
		for stall > 0 {
			chunk := min(interval, stall)
			d := tr.begin("power.drain", k)
			p := s.Meter.Drain(0, chunk, pow)
			tr.end(d)
			a := tr.begin("thermal.advance", k)
			s.Th.Advance(p, float64(chunk)*secPerCycle)
			tr.end(a)
			cycles += int64(chunk)
			stallCycles += int64(chunk)
			stall -= chunk
		}
		tr.end(k)
	}
	tr.end(root)
	*out = tracedCell{
		tr: tr, r: s.Snapshot(), cycles: cycles, stallCycles: stallCycles,
		start: time.Duration(tr.Spans[root].Start),
	}
	return nil
}

// warmStartBelowThreshold mirrors sim's warm start: the steady state of
// the measured power, scaled toward ambient if it would start any block
// at or above the critical threshold.
func warmStartBelowThreshold(s *sim.Simulator, pow []float64) {
	s.Th.WarmStart(pow)
	temps := s.Th.Temps(nil)
	maxT := 0.0
	for _, t := range temps {
		maxT = max(maxT, t)
	}
	limit := s.Cfg.MaxTempK - 0.5
	if maxT < limit {
		return
	}
	scale := (limit - s.Cfg.AmbientK) / (maxT - s.Cfg.AmbientK)
	for i := range temps {
		temps[i] = s.Cfg.AmbientK + (temps[i]-s.Cfg.AmbientK)*scale
	}
	s.Th.SetTemps(temps)
}

// sameCell reports whether the traced replica reproduced the untraced
// cell exactly: committed instructions, cycles, every DTM counter, chip
// power and the hottest block's temperature.
func sameCell(want *sim.Result, got *tracedCell) error {
	g := got.r
	wb, wt := want.HottestBlock()
	gb, gt := g.HottestBlock()
	switch {
	case g.Committed != want.Committed, got.cycles != want.Cycles, got.stallCycles != want.StallCycles,
		g.Stalls != want.Stalls, g.IntToggles != want.IntToggles, g.FPToggles != want.FPToggles,
		g.ALUTurnoffs != want.ALUTurnoffs, g.RFCopyTurnoffs != want.RFCopyTurnoffs,
		g.AvgChipPowerW != want.AvgChipPowerW, gb != wb, gt != wt:
		return fmt.Errorf("traced %s diverged from the untraced cell: committed %d/%d cycles %d/%d stalls %d/%d toggles %d+%d/%d+%d",
			got.tr.ID, g.Committed, want.Committed, got.cycles, want.Cycles, g.Stalls, want.Stalls,
			g.IntToggles, g.FPToggles, want.IntToggles, want.FPToggles)
	}
	return nil
}
