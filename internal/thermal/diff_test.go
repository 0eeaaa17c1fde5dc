// Differential suite. The model has one transient integrator, the CSR
// Euler step, and it is held bit for bit against a test-only dense
// reference: the historical explicit-Euler loop over a full conductance
// matrix. The e2ebench and golden digests depend on that bit identity.
// Steady states are held twice: the size-selected solver must be exactly
// Gaussian elimination up to 64 nodes and exactly CG above, and the two
// solvers must agree within 1e-9 K at every size checked. Plans come from
// the paper floorplans, synthetic meshes, and seeded random guillotine
// plans on both sides of the crossover.
//
// The file also carries the property tests (conductance symmetry,
// zero-power relaxation, steady-state energy balance, monotonicity in
// power), run once per steady-state solver.
package thermal

import (
	"math"
	"testing"

	"repro/internal/config"
	"repro/internal/floorplan"
)

// diffPlans are the floorplans the lockstep suite runs over: every paper
// variant plus synthetic plans on both sides of the Gaussian/CG crossover.
func diffPlans() map[string]*floorplan.Plan {
	return map[string]*floorplan.Plan{
		"paper-iq":  floorplan.Build(config.PlanIQConstrained),
		"paper-alu": floorplan.Build(config.PlanALUConstrained),
		"paper-rf":  floorplan.Build(config.PlanRFConstrained),
		"mesh-4x4":  floorplan.Mesh(4, 4),
		"mesh-7x8":  floorplan.Mesh(7, 8),
		"rand-20":   floorplan.Random(20, 0xfeed),
		"rand-45":   floorplan.Random(45, 0xbeef),
		"rand-62":   floorplan.Random(62, 0xcafe), // 64 nodes: the largest Gaussian network
		"mesh-8x8":  floorplan.Mesh(8, 8),         // 66 nodes: the smallest CG network
	}
}

// denseEuler is the test-only transient reference: a full conductance
// matrix materialized from m.conductance and the explicit-Euler loop that
// visits it densely, skipping zeros. It shares the model's capacitances
// and ambient coupling but derives its own stability bound and keeps its
// own temperatures.
type denseEuler struct {
	m         *Model
	g         [][]float64
	t, d      []float64
	maxStable float64
}

func newDenseEuler(m *Model) *denseEuler {
	r := &denseEuler{
		m: m,
		g: make([][]float64, m.nTotal),
		t: append([]float64(nil), m.t...),
		d: make([]float64, m.nTotal),
	}
	minTau := math.Inf(1)
	for i := range r.g {
		r.g[i] = make([]float64, m.nTotal)
		sum := m.gAmb[i]
		for j := range r.g[i] {
			if gij := m.conductance(i, j); gij != 0 {
				r.g[i][j] = gij
				sum += gij
			}
		}
		if sum > 0 {
			minTau = min(minTau, m.c[i]/sum)
		}
	}
	r.maxStable = minTau / 2
	return r
}

func (r *denseEuler) advance(power []float64, seconds float64) {
	m := r.m
	steps := int(seconds/r.maxStable) + 1
	dt := seconds / float64(steps)
	for s := 0; s < steps; s++ {
		for i := 0; i < m.nTotal; i++ {
			flow := 0.0
			ti := r.t[i]
			for j, gij := range r.g[i] {
				if gij != 0 {
					flow += gij * (r.t[j] - ti)
				}
			}
			if m.gAmb[i] != 0 {
				flow += m.gAmb[i] * (m.ambient - ti)
			}
			if i < m.n {
				flow += power[i]
			}
			r.d[i] = dt / m.c[i] * flow
		}
		for i := range r.d {
			r.t[i] += r.d[i]
		}
	}
}

// requireSameBits fails unless the model's full node state (blocks,
// spreader, sink) equals want bit for bit.
func requireSameBits(t *testing.T, what string, m *Model, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(m.t[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s node %d: model %.17g reference %.17g", what, i, m.t[i], want[i])
		}
	}
}

// lcg is a tiny deterministic generator for test power vectors.
type lcg uint64

func (l *lcg) next() float64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return float64(uint64(*l)>>11) / (1 << 53)
}

func randomPower(rng *lcg, n int, maxW float64) []float64 {
	p := make([]float64, n)
	for i := range p {
		p[i] = maxW * rng.next()
	}
	return p
}

const diffTol = 1e-9

// TestDiffTransientLockstep drives the model and the dense reference
// through the same Advance sequence — varied powers, varied durations,
// including sub-stability and many-substep calls — and requires every
// node temperature to be bit-identical at every checkpoint, plus an
// identical stability bound and exact AdvanceCalls.
func TestDiffTransientLockstep(t *testing.T) {
	for name, plan := range diffPlans() {
		t.Run(name, func(t *testing.T) {
			m := New(plan, config.Default())
			ref := newDenseEuler(m)
			if m.MaxStableStep() != ref.maxStable {
				t.Fatalf("MaxStableStep diverges: model %v reference %v", m.MaxStableStep(), ref.maxStable)
			}
			rng := lcg(0x5eed)
			n := plan.NumBlocks()
			for step := 0; step < 40; step++ {
				pow := randomPower(&rng, n, 3.0)
				// Mix durations: fractions of the stable step through
				// hundreds of substeps.
				dur := m.MaxStableStep() * math.Pow(10, 4*rng.next()-1)
				m.Advance(pow, dur)
				ref.advance(pow, dur)
				requireSameBits(t, "step", m, ref.t)
			}
			if m.AdvanceCalls != 40 {
				t.Fatalf("AdvanceCalls = %d, want 40", m.AdvanceCalls)
			}
		})
	}
}

// TestDiffSteadyState holds CG against Gaussian elimination on random
// power vectors at every plan size, whichever one the model selects.
func TestDiffSteadyState(t *testing.T) {
	for name, plan := range diffPlans() {
		t.Run(name, func(t *testing.T) {
			m := New(plan, config.Default())
			rng := lcg(0xabcde)
			n := plan.NumBlocks()
			for trial := 0; trial < 10; trial++ {
				pow := randomPower(&rng, n, 4.0)
				want := m.SteadyStateDense(pow)
				got := m.SteadyStateCG(pow)
				for i := range want {
					if d := math.Abs(want[i] - got[i]); d > diffTol {
						t.Fatalf("trial %d block %d: gaussian %.12f cg %.12f (Δ %.3g)",
							trial, i, want[i], got[i], d)
					}
				}
			}
		})
	}
}

// TestSteadyStateCrossover pins which solver SteadyState and WarmStart
// run: Gaussian elimination, bit for bit, through the largest network of
// 64 nodes (every paper plan, rand-62), and CG, bit for bit, from 66
// nodes (mesh-8x8). The fig6 and multicore digests depend on both sides.
func TestSteadyStateCrossover(t *testing.T) {
	for _, tc := range []struct {
		name  string
		plan  *floorplan.Plan
		gauss bool
	}{
		{"paper-iq", floorplan.Build(config.PlanIQConstrained), true},
		{"paper-alu", floorplan.Build(config.PlanALUConstrained), true},
		{"paper-rf", floorplan.Build(config.PlanRFConstrained), true},
		{"rand-62", floorplan.Random(62, 0xcafe), true},
		{"mesh-8x8", floorplan.Mesh(8, 8), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := New(tc.plan, config.Default())
			rng := lcg(0xc505)
			pow := randomPower(&rng, tc.plan.NumBlocks(), 3.0)
			want := m.SteadyStateCG(pow)
			if tc.gauss {
				want = m.SteadyStateDense(pow)
			}
			got := m.SteadyState(pow)
			m.WarmStart(pow)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("SteadyState block %d: %.17g, want %.17g (gaussian=%v)", i, got[i], want[i], tc.gauss)
				}
				if math.Float64bits(m.Temp(i)) != math.Float64bits(want[i]) {
					t.Fatalf("WarmStart block %d: %.17g, want %.17g (gaussian=%v)", i, m.Temp(i), want[i], tc.gauss)
				}
			}
		})
	}
}

// TestDiffWarmStart checks a warm start lands within diffTol of both
// steady-state solvers, then that it holds steady under the same power
// while the dense reference integrates in bit-identical lockstep.
func TestDiffWarmStart(t *testing.T) {
	for name, plan := range diffPlans() {
		t.Run(name, func(t *testing.T) {
			m := New(plan, config.Default())
			rng := lcg(0x77)
			pow := randomPower(&rng, plan.NumBlocks(), 2.5)
			gauss, cg := m.SteadyStateDense(pow), m.SteadyStateCG(pow)
			m.WarmStart(pow)
			for i := 0; i < plan.NumBlocks(); i++ {
				if d := max(math.Abs(m.Temp(i)-gauss[i]), math.Abs(m.Temp(i)-cg[i])); d > diffTol {
					t.Fatalf("block %d: warm %.12f gaussian %.12f cg %.12f", i, m.Temp(i), gauss[i], cg[i])
				}
			}
			// A warm-started model must not drift under the same power.
			ref := newDenseEuler(m)
			m.Advance(pow, 1e-3)
			ref.advance(pow, 1e-3)
			requireSameBits(t, "after warm start", m, ref.t)
			for i := 0; i < plan.NumBlocks(); i++ {
				if d := math.Abs(m.Temp(i) - gauss[i]); d > 1e-6 {
					t.Fatalf("drifted from the steady state at block %d (Δ %.3g)", i, d)
				}
			}
		})
	}
}

// --- Property tests -----------------------------------------------------

// eachSolver runs f once per steady-state solver on the plan's model:
// "dense" makes WarmStart and SteadyState use Gaussian elimination and
// "sparse" CG, whatever the plan's size. Transients run the one CSR
// integrator in both.
func eachSolver(t *testing.T, plan *floorplan.Plan, f func(t *testing.T, m *Model, cfg *config.Config)) {
	for _, solver := range []struct {
		name string
		cg   bool
	}{{"dense", false}, {"sparse", true}} {
		t.Run(solver.name, func(t *testing.T) {
			cfg := config.Default()
			m := New(plan, cfg)
			m.cgSteady = solver.cg
			f(t, m, cfg)
		})
	}
}

func propertyPlans() map[string]*floorplan.Plan {
	return map[string]*floorplan.Plan{
		"paper-iq": floorplan.Build(config.PlanIQConstrained),
		"mesh-6x7": floorplan.Mesh(6, 7),
		"rand-33":  floorplan.Random(33, 0x1234),
	}
}

// TestPropertyConductanceSymmetry: g[i][j] == g[j][i] for every node
// pair (this pins the CSR construction, not just the accessor).
func TestPropertyConductanceSymmetry(t *testing.T) {
	for name, plan := range propertyPlans() {
		t.Run(name, func(t *testing.T) {
			eachSolver(t, plan, func(t *testing.T, m *Model, _ *config.Config) {
				for i := 0; i < m.nTotal; i++ {
					for j := i + 1; j < m.nTotal; j++ {
						if gij, gji := m.conductance(i, j), m.conductance(j, i); gij != gji {
							t.Fatalf("asymmetric conductance (%d,%d): %v vs %v", i, j, gij, gji)
						}
					}
				}
			})
		})
	}
}

// TestPropertyZeroPowerRelaxation: with no power, any initial state
// relaxes toward ambient, and the zero-power steady state is ambient
// exactly (to solver tolerance).
func TestPropertyZeroPowerRelaxation(t *testing.T) {
	for name, plan := range propertyPlans() {
		t.Run(name, func(t *testing.T) {
			eachSolver(t, plan, func(t *testing.T, m *Model, cfg *config.Config) {
				n := m.NumBlocks()
				ss := m.SteadyState(make([]float64, n))
				for i, temp := range ss {
					if math.Abs(temp-cfg.AmbientK) > 1e-6 {
						t.Fatalf("block %d zero-power steady state %v", i, temp)
					}
				}
				hot := make([]float64, n)
				for i := range hot {
					hot[i] = cfg.AmbientK + 20
				}
				m.SetTemps(hot)
				before := m.Temp(0)
				m.Advance(make([]float64, n), 0.050)
				after := m.Temp(0)
				if after >= before {
					t.Fatalf("no relaxation: %.3f -> %.3f", before, after)
				}
				if after < cfg.AmbientK-1e-9 {
					t.Fatalf("undershot ambient: %.6f", after)
				}
			})
		})
	}
}

// TestPropertyEnergyBalance: at steady state, all injected power leaves
// through the convection resistance, so the sink sits at exactly
// ambient + P_total·R_conv.
func TestPropertyEnergyBalance(t *testing.T) {
	for name, plan := range propertyPlans() {
		t.Run(name, func(t *testing.T) {
			eachSolver(t, plan, func(t *testing.T, m *Model, cfg *config.Config) {
				rng := lcg(0x42)
				pow := randomPower(&rng, m.NumBlocks(), 2.0)
				total := 0.0
				for _, p := range pow {
					total += p
				}
				m.WarmStart(pow)
				want := cfg.AmbientK + total*cfg.ConvectionRes
				if got := m.SinkTemp(); math.Abs(got-want) > 1e-6 {
					t.Fatalf("sink %v, want %v (conservation violated)", got, want)
				}
			})
		})
	}
}

// TestPropertyMonotoneInPower: raising one block's power never lowers
// any block's steady-state temperature, and strictly raises its own.
func TestPropertyMonotoneInPower(t *testing.T) {
	for name, plan := range propertyPlans() {
		t.Run(name, func(t *testing.T) {
			eachSolver(t, plan, func(t *testing.T, m *Model, _ *config.Config) {
				rng := lcg(0x99)
				base := randomPower(&rng, m.NumBlocks(), 1.0)
				low := m.SteadyState(base)
				for _, idx := range []int{0, m.NumBlocks() / 2, m.NumBlocks() - 1} {
					bumped := make([]float64, len(base))
					copy(bumped, base)
					bumped[idx] += 1.5
					high := m.SteadyState(bumped)
					for i := range low {
						if high[i] < low[i]-1e-9 {
							t.Fatalf("block %d cooled when block %d's power rose", i, idx)
						}
					}
					if high[idx]-low[idx] < 1e-4 {
						t.Fatalf("block %d barely warmed under its own power", idx)
					}
				}
			})
		})
	}
}

// TestLargeMeshEndToEnd is the scale acceptance check: a 3000-node mesh
// plan (50×60 blocks) builds, integrates transients, and solves steady
// states by CG with physically sane results.
func TestLargeMeshEndToEnd(t *testing.T) {
	rows, cols := 50, 60
	if testing.Short() {
		rows, cols = 20, 30
	}
	plan := floorplan.Mesh(rows, cols)
	cfg := config.Default()
	m := New(plan, cfg)
	if !m.cgSteady {
		t.Fatalf("%d nodes resolved to Gaussian elimination", plan.NumBlocks()+2)
	}
	n := plan.NumBlocks()
	pow := make([]float64, n)
	total := 0.0
	for i := range pow {
		pow[i] = 40.0 / float64(n) // ~40 W chip
		total += pow[i]
	}
	// Steady state: energy balance pins the sink; the interior must sit
	// above ambient and below an absurd bound.
	m.WarmStart(pow)
	wantSink := cfg.AmbientK + total*cfg.ConvectionRes
	if got := m.SinkTemp(); math.Abs(got-wantSink) > 1e-6 {
		t.Fatalf("sink %v, want %v", got, wantSink)
	}
	for i := 0; i < n; i++ {
		if temp := m.Temp(i); math.IsNaN(temp) || temp < cfg.AmbientK || temp > 500 {
			t.Fatalf("block %d unphysical steady temp %v", i, temp)
		}
	}
	// Transient: a sensor interval's worth of integration stays finite
	// and counts one Advance.
	dt := float64(cfg.SensorIntervalCycles) * cfg.ThermalSecondsPerCycle()
	m.Advance(pow, dt)
	if m.AdvanceCalls != 1 {
		t.Fatalf("AdvanceCalls = %d", m.AdvanceCalls)
	}
	for i := 0; i < n; i++ {
		if temp := m.Temp(i); math.IsNaN(temp) || temp > 500 {
			t.Fatalf("block %d unphysical transient temp %v", i, temp)
		}
	}
	// And a corner block heated alone must dominate its diagonal
	// opposite (vertical-dominance sanity at scale).
	solo := make([]float64, n)
	solo[plan.Index(floorplan.MeshCell(0, 0))] = 5.0
	ss := m.SteadyState(solo)
	hot := ss[plan.Index(floorplan.MeshCell(0, 0))]
	far := ss[plan.Index(floorplan.MeshCell(rows-1, cols-1))]
	if hot-cfg.AmbientK < 2*(far-cfg.AmbientK) {
		t.Fatalf("no locality at scale: hot rise %.4f vs far rise %.4f", hot-cfg.AmbientK, far-cfg.AmbientK)
	}
}

// TestSparseAdvanceDoesNotAllocate locks Advance to zero steady-state
// heap traffic: the per-interval Advance sits on the simulator's hot loop.
func TestSparseAdvanceDoesNotAllocate(t *testing.T) {
	plan := floorplan.Mesh(20, 20)
	m := New(plan, config.Default())
	pow := make([]float64, plan.NumBlocks())
	for i := range pow {
		pow[i] = 0.05
	}
	dt := m.MaxStableStep() * 10
	m.Advance(pow, dt) // warm any lazy state
	if avg := testing.AllocsPerRun(50, func() { m.Advance(pow, dt) }); avg != 0 {
		t.Fatalf("Advance allocates %.1f objects per call", avg)
	}
}

// TestSteadyStateScratchReuse: repeated CG steady-state solves reuse the
// scratch — only the returned result slice is allocated.
func TestSteadyStateScratchReuse(t *testing.T) {
	plan := floorplan.Mesh(15, 15)
	m := New(plan, config.Default())
	pow := make([]float64, plan.NumBlocks())
	pow[0] = 2.0
	m.SteadyState(pow) // size the scratch
	if avg := testing.AllocsPerRun(20, func() { m.SteadyState(pow) }); avg > 1 {
		t.Fatalf("CG SteadyState allocates %.1f objects per call, want just the result", avg)
	}
}
