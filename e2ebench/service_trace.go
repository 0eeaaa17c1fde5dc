package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/journal"
	"repro/internal/service"
)

// traceService derives the per-layer service metrics from four passes:
// the daemon driven as in a timed run (its /metrics deltas per phase),
// an in-process server behind a timing handler, isolated calls into
// request, cache, journal and the simulator, and a profiled daemon.
func traceService(o options, t *tally, in *serviceInputs) (metrics, error) {
	m := metrics{}
	hitDur, batchDur := phaseTimes(o.duration)

	d, _, err := startDaemon(o)
	if err != nil {
		return nil, err
	}
	defer d.kill()
	tg := newTarget(d.base, o.par)
	pr, err := servicePass(tg, t, in, o.par, hitDur, batchDur)
	if err != nil {
		return nil, err
	}
	verifyPass(tg, t, in, pr)
	t.check(guard(pr.last))
	if _, err := d.stop(); err != nil {
		return nil, err
	}
	engineMetrics(m, pr)
	sums, err := simSum(pr.coldResults)
	if err != nil {
		return nil, err
	}
	m.set("sim.committed_minst", "Minst", sums.committedMinst)
	m.set("sim.stall_cycles", "cycles", sums.stallCycles)
	m.set("core.dtm_actions", "count", sums.dtmActions)

	if err := serverLayers(o, t, in, m); err != nil {
		return nil, err
	}
	if err := isolatedLayers(o, t, in, pr, m); err != nil {
		return nil, err
	}
	m.set("service.cold_overhead_ms", "ms", median(rttMs(pr.cold))-m["cell.run_ms"].Value)

	prof, err := profileDaemon(o, t, in)
	if err != nil {
		return nil, err
	}
	for k, v := range prof {
		m[k] = v
	}
	return m, nil
}

// engineMetrics reports the daemon's counters as per-phase deltas.
func engineMetrics(m metrics, pr *passResult) {
	all := map[string]float64{}
	for _, d := range pr.deltas {
		for k, v := range d {
			all[k] += v
		}
	}
	hit, batch := pr.deltas["hit"], pr.deltas["batch"]
	m.set("engine.hit_ratio", "frac", all["cache_hits"]/(all["cache_hits"]+all["cache_misses"]))
	m.set("engine.disk_hit_share", "frac", hit["disk_hits"]/hit["lru_hits"])
	m.set("engine.queue_wait_ewma_ms", "ms", pr.last.QueueWaitEWMAMS)
	m.set("engine.jobs_stolen", "count", batch["stolen"])
	m.set("engine.jobs_deduped", "count", batch["deduped"])
	for name, ops := range map[string]int{"cold": len(pr.cold), "hit": len(pr.hit), "batch": len(pr.batch)} {
		m.set("go.alloc_kb_per_job."+name, "KiB/job", pr.deltas[name]["alloc_bytes"]/1024/float64(max(ops, 1)))
	}
	m.set("go.alloc_kb_per_op", "KiB/op", pr.deltas["cold"]["alloc_bytes"]/1024/float64(max(len(pr.cold), 1)))
	m.set("go.gc_cycles", "count", all["gc_cycles"])
}

// timingHandler times every request the wrapped handler serves, keyed
// by the client's X-Bench-Op id, while on.
type timingHandler struct {
	h  http.Handler
	on atomic.Bool
	mu sync.Mutex
	d  map[int64]time.Duration
}

func (th *timingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !th.on.Load() {
		th.h.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	th.h.ServeHTTP(w, r)
	d := time.Since(t0)
	if id, err := strconv.ParseInt(r.Header.Get("X-Bench-Op"), 10, 64); err == nil {
		th.mu.Lock()
		th.d[id] = d
		th.mu.Unlock()
	}
}

// serverLayers splits a hit's round trip into the in-process server's
// handler time and the client/transport remainder, and measures the
// timing handler's own cost by running the hit phase with it off, then on.
func serverLayers(o options, t *tally, in *serviceInputs, m metrics) error {
	dir, err := os.MkdirTemp(o.scratch, "inproc-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cache, err := service.NewCache(cacheEntries, filepath.Join(dir, "cache"))
	if err != nil {
		return err
	}
	jnl, _, err := journal.Open(filepath.Join(dir, "journal"))
	if err != nil {
		return err
	}
	eng := service.NewEngine(service.EngineConfig{Workers: o.par, Cache: cache, Journal: jnl})
	th := &timingHandler{h: service.NewServer(eng), d: map[int64]time.Duration{}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Shutdown(context.Background())
		return err
	}
	srv := &http.Server{Handler: th}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Shutdown(context.Background())
		<-served
		eng.Shutdown(context.Background())
	}()

	tg := newTarget("http://"+ln.Addr().String(), o.par)
	hitDur, _ := phaseTimes(o.duration)
	pr, err := servicePass(tg, t, in, o.par, hitDur/2, 0)
	if err != nil {
		return err
	}
	th.on.Store(true)
	on, err := servicePass(tg, t, in, o.par, hitDur/2, 0)
	if err != nil {
		return err
	}
	var handler, client []float64
	th.mu.Lock()
	for _, s := range on.hit {
		if d, ok := th.d[s.id]; ok {
			handler = append(handler, float64(d)/float64(time.Microsecond))
			client = append(client, float64(s.rtt-d)/float64(time.Microsecond))
		}
	}
	th.mu.Unlock()
	m.set("server.handler_us", "us", median(handler))
	m.set("http.client_us", "us", median(client))
	m.set("tracing.overhead_frac", "frac", median(rttMs(on.hit))/median(rttMs(pr.hit))-1)
	return nil
}

// isolatedLayers times single calls into request, cache, journal and
// the simulator on the service workload's own stream.
func isolatedLayers(o options, t *tally, in *serviceInputs, pr *passResult, m metrics) error {
	dir, err := os.MkdirTemp(o.scratch, "layers-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	r := rand.New(rand.NewSource(int64(in.seed)*7919 + 1))
	stream := make([]int, 4000)
	for i := range stream {
		stream[i] = r.Intn(in.nHit)
	}
	var keys []time.Duration
	for _, i := range stream {
		var err error
		keys = append(keys, timeIt(func() { _, err = in.cold[i].req.Key() }))
		if err != nil {
			return err
		}
	}
	m.set("request.key_us", "us", median(us(keys)))

	cache, err := service.NewCache(cacheEntries, filepath.Join(dir, "cache"))
	if err != nil {
		return err
	}
	var puts, memGets, diskGets []time.Duration
	for i, c := range in.cold[:in.nHit] {
		puts = append(puts, timeIt(func() { cache.Put(c.key, pr.coldResults[i]) }))
	}
	for _, i := range stream {
		before := cache.Stats().DiskHits
		var ok bool
		d := timeIt(func() { _, ok = cache.Get(in.cold[i].key) })
		if !ok {
			t.check(fmt.Errorf("cache: key %s missing after Put", in.cold[i].key))
			continue
		}
		if cache.Stats().DiskHits > before {
			diskGets = append(diskGets, d)
		} else {
			memGets = append(memGets, d)
		}
	}
	m.set("cache.put_ms", "ms", median(ms(puts)))
	m.set("cache.get_mem_us", "us", median(us(memGets)))
	m.set("cache.get_disk_us", "us", median(us(diskGets)))

	jnl, _, err := journal.Open(filepath.Join(dir, "journal"))
	if err != nil {
		return err
	}
	var appends []time.Duration
	for _, c := range in.cold[:64] {
		canon, err := c.req.Canonical()
		if err != nil {
			return err
		}
		rec := journal.Record{Op: journal.OpSubmit, Key: c.key, Req: canon}
		appends = append(appends, timeIt(func() { err = jnl.Append(rec) }))
		if err != nil {
			jnl.Close()
			return err
		}
	}
	if err := jnl.Close(); err != nil {
		return err
	}
	m.set("journal.append_ms", "ms", median(ms(appends)))

	// Two cells of each cold benchmark, one per technique.
	var runs []time.Duration
	for i := 0; i < 2*len(coldBenches); i++ {
		c := in.cold[i]
		var b []byte
		runs = append(runs, timeIt(func() { b, err = runDirect(c.req) }))
		if err == nil && string(b) != string(pr.coldResults[i]) {
			err = fmt.Errorf("job %s: direct run differs from the served bytes", c.key)
		}
		t.check(err)
	}
	m.set("cell.run_ms", "ms", median(ms(runs)))
	return nil
}

// profileDaemon CPU-profiles a fresh daemon through /debug/pprof while a
// shortened pass of the three phases drives it.
func profileDaemon(o options, t *tally, in *serviceInputs) (metrics, error) {
	d, _, err := startDaemon(o)
	if err != nil {
		return nil, err
	}
	defer d.kill()
	tg := newTarget(d.base, o.par)
	secs := max(4, int(o.duration.Seconds()/2))
	type got struct {
		b   []byte
		err error
	}
	profCh := make(chan got, 1)
	go func() {
		b, err := tg.get("/debug/pprof/profile?seconds=" + strconv.Itoa(secs))
		profCh <- got{b, err}
	}()
	budget := time.Duration(secs) * time.Second
	if _, err := servicePass(tg, t, in, o.par, budget/4, budget/4); err != nil {
		<-profCh
		return nil, err
	}
	p := <-profCh
	if _, err := d.stop(); err != nil {
		return nil, err
	}
	if p.err != nil {
		return nil, p.err
	}
	return foldProfile(o.scratch, p.b)
}
