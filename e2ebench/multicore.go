package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/config"
	"repro/internal/multicore"
)

// The multicore workload compares a temperature-blind placement with
// the coolest-first placement of Hung et al. on a four-core die.
var mcSchedulers = []config.Scheduler{config.SchedRoundRobin, config.SchedCoolestFirst}

const mcCores = 4

func mcParams(o options, sched config.Scheduler) multicore.Params {
	return multicore.Params{Cores: mcCores, Scheduler: sched, Seed: o.seed, Parallelism: o.par}
}

func runMulticore(o options, t *tally) (metrics, error) {
	if o.trace {
		return traceMulticore(o, t)
	}
	var setups []float64
	for k := 0; k < 5; k++ {
		for _, sched := range mcSchedulers {
			var err error
			d := timeIt(func() { _, err = multicore.NewSystem(mcParams(o, sched)) })
			if err != nil {
				return nil, err
			}
			setups = append(setups, d.Seconds())
		}
	}
	first := map[config.Scheduler]string{}
	var walls, rates, mips []float64
	start := time.Now()
	// Each sample is one run of every scheduler: the schedulers differ in
	// speed, and a median over their mixed runs would fall in the gap
	// between them.
	for len(rates) == 0 || time.Since(start) < o.duration {
		var tasks, minst, wall float64
		for _, sched := range mcSchedulers {
			var r *multicore.Result
			var err error
			wall += timeIt(func() { r, err = multicore.Run(context.Background(), mcParams(o, sched)) }).Seconds()
			if err != nil {
				return nil, err
			}
			t.check(checkMulticore(o.seed, sched, r, first))
			tasks += float64(r.TasksCompleted)
			minst += float64(r.TotalCommitted) / 1e6
		}
		walls = append(walls, 1000*wall)
		rates = append(rates, tasks/wall)
		mips = append(mips, minst/wall)
	}
	m := metrics{}
	m.set("setup_s", "s", median(setups))
	m.set("peak_rss_mb", "MiB", peakRSSMiB())
	m.set("ops_per_s", "1/s", median(rates))
	m.set("sim_mips", "Minst/s", median(mips))
	m.set("request_p50_ms", "ms", median(walls))
	return m, nil
}

// checkMulticore requires every task to retire within the horizon and
// the Result JSON to match the pinned digest (default seed) or, for any
// seed, the first run of the same scheduler.
func checkMulticore(seed uint64, sched config.Scheduler, r *multicore.Result, first map[config.Scheduler]string) error {
	if r.TasksCompleted != r.TasksTotal {
		return fmt.Errorf("multicore %v: %d of %d tasks retired", sched, r.TasksCompleted, r.TasksTotal)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	got := digest(b)
	want, ok := first[sched]
	if seed == defaultSeed {
		want, ok = pinnedMulticore[sched.String()], true
	}
	if !ok {
		first[sched] = got
		return nil
	}
	if got != want {
		return fmt.Errorf("multicore %v: %w: %s", sched, errDigest, got)
	}
	return nil
}

// traceMulticore runs both schedulers untraced, then traced per call to
// NewSystem and System.Step, then profiled, each separately.
func traceMulticore(o options, t *tally) (metrics, error) {
	first := map[config.Scheduler]string{}
	refJSON := map[config.Scheduler][]byte{}
	var wallRef time.Duration
	var refTasks float64
	alloc, gcs, err := goCost(func() error {
		for _, sched := range mcSchedulers {
			var r *multicore.Result
			var err error
			wallRef += timeIt(func() { r, err = multicore.Run(context.Background(), mcParams(o, sched)) })
			if err != nil {
				return err
			}
			t.check(checkMulticore(o.seed, sched, r, first))
			refJSON[sched], _ = json.Marshal(r)
			refTasks += float64(r.TasksCompleted)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var trs []*spanTrace
	var intervals, migrations, stalls, stallCycles, committed float64
	t0 := time.Now()
	for _, sched := range mcSchedulers {
		tr := newTrace(sched.String(), t0)
		root := tr.begin("multicore.run", -1)
		k := tr.begin("multicore.new_system", root)
		s, err := multicore.NewSystem(mcParams(o, sched))
		tr.end(k)
		if err != nil {
			return nil, err
		}
		for !s.Done() {
			k := tr.begin("multicore.step", root)
			err := s.Step()
			tr.end(k)
			if err != nil {
				return nil, err
			}
		}
		k = tr.begin("multicore.result", root)
		r := s.Result()
		tr.end(k)
		tr.end(root)
		trs = append(trs, tr)
		b, err := json.Marshal(r)
		if err == nil && string(b) != string(refJSON[sched]) {
			err = fmt.Errorf("traced multicore %v diverged from the untraced run", sched)
		}
		t.check(err)
		t.check(coverageOK(tr.ID, tr.coverage(root)))
		intervals += float64(r.Intervals)
		migrations += float64(r.Migrations)
		stalls += float64(r.CoolingStalls)
		stallCycles += float64(r.StallCycles)
		committed += float64(r.TotalCommitted)
	}
	wallTraced := time.Since(t0)

	m := metrics{}
	steps := ms(allDurations(trs, "multicore.step"))
	m.set("multicore.new_system_ms", "ms", median(ms(allDurations(trs, "multicore.new_system"))))
	m.set("multicore.step_ms_p50", "ms", median(steps))
	m.set("multicore.step_ms_p90", "ms", quantile(steps, 0.9))
	m.set("multicore.intervals", "count", intervals)
	m.set("multicore.migrations", "count", migrations)
	m.set("multicore.cooling_stalls", "count", stalls)
	m.set("sim.committed_minst", "Minst", committed/1e6)
	m.set("sim.stall_cycles", "cycles", stallCycles)
	// The tasks run without DTM techniques, so cooling stalls are the
	// only DTM action.
	m.set("core.dtm_actions", "count", stalls)
	m.set("go.gc_cycles", "count", gcs)
	m.set("go.alloc_kb_per_op", "KiB/op", alloc/refTasks)
	m.set("tracing.overhead_frac", "frac", float64(wallTraced)/float64(wallRef)-1)
	m.set("tracing.span_coverage", "frac", min(trs[0].coverage(0), trs[1].coverage(0)))
	if err := dumpSpans(o.scratch, "multicore_sched", trs); err != nil {
		return nil, err
	}

	prof, err := profileRun(o.scratch, func() error {
		for _, sched := range mcSchedulers {
			r, err := multicore.Run(context.Background(), mcParams(o, sched))
			if err != nil {
				return err
			}
			t.check(checkMulticore(o.seed, sched, r, first))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for k, v := range prof {
		m[k] = v
	}
	return m, nil
}
