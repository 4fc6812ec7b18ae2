package apps

import (
	"swex/internal/machine"
	"swex/internal/mem"
	"swex/internal/proc"
	"swex/internal/shm"
	"swex/internal/sim"
)

// AQParams configures the adaptive-quadrature application (paper Section
// 6): numerical integration of x^4*y^4 over the square ((0,0),(2,2)).
type AQParams struct {
	// Tolerance is the relative error bound that stops refinement.
	Tolerance float64
	// MaxLevel caps recursion depth (refinement stops regardless).
	MaxLevel int
	// SpawnLevel is the depth above which refinement forks queue tasks;
	// deeper regions are integrated inline, setting the task grain.
	SpawnLevel int
	// EvalCycles models the instruction work per function evaluation.
	EvalCycles sim.Cycle
}

// DefaultAQ scales the paper's run (tolerance 0.005) to a depth that keeps
// a 64-node cycle-level simulation tractable while producing thousands of
// producer-consumer tasks.
func DefaultAQ() AQParams {
	return AQParams{Tolerance: 0.0000005, MaxLevel: 9, SpawnLevel: 5, EvalCycles: 60}
}

// aqF is the integrand x^4 * y^4.
func aqF(x, y float64) float64 {
	x2, y2 := x*x, y*y
	return x2 * x2 * y2 * y2
}

// aqTask packs a region: x and y cell indices at the task's level, plus
// the level. The region is the square of side 2/2^level at
// (x*side, y*side).
func aqPack(xi, yi, level int) uint64 {
	return uint64(xi) | uint64(yi)<<20 | uint64(level)<<40
}

func aqUnpack(t uint64) (xi, yi, level int) {
	return int(t & 0xFFFFF), int(t >> 20 & 0xFFFFF), int(t >> 40)
}

// AQ builds the adaptive quadrature application. All communication is
// producer-consumer through the distributed task queue — the paper notes
// this access pattern lets every protocol with at least one hardware
// pointer perform equally well, and lets even the software-only directory
// perform respectably.
func AQ(p AQParams) Program {
	return Program{
		Name:     "AQ",
		Language: "Semi-C",
		Size:     "x^4y^4 over ((0,0),(2,2))",
		Setup: func(m *machine.Machine) Instance {
			P := m.Cfg.Nodes
			queue := shm.NewTaskQueue(m.Mem, P, 8192)
			term := shm.NewDistTermination(m.Mem, P)
			bar := shm.NewTreeBarrier(m.Mem, P)
			result := shm.NewReducer(m.Mem, mem.NodeID(2%P))

			thread := func(env *proc.Env) {
				if env.Thread() > 0 {
					// The program runs one context per node; the barrier and the
					// termination detector count nodes, so further contexts idle.
					return
				}
				id := env.ID()
				env.SetCode(proc.CodeSpace+3100*mem.WordsPerBlock, 10)
				if id == 0 {
					// Root: the whole square as four level-1 cells so
					// work spreads immediately.
					term.Register(env, 4)
					for xi := 0; xi < 2; xi++ {
						for yi := 0; yi < 2; yi++ {
							queue.Push(env, 0, aqPack(xi, yi, 1))
						}
					}
				}
				bar.Wait(env)

				var local uint64 // per-node partial sum, Q32.32

				// estimate returns the midpoint and four-subcell
				// integrals of a region and whether it needs refining;
				// five integrand evaluations.
				estimate := func(xi, yi, level int) (fine float64, refine bool) {
					side := 2.0 / float64(uint64(1)<<uint(level))
					x0, y0 := float64(xi)*side, float64(yi)*side
					env.Compute(5 * p.EvalCycles)
					area := side * side
					coarse := aqF(x0+side/2, y0+side/2) * area
					for dx := 0; dx < 2; dx++ {
						for dy := 0; dy < 2; dy++ {
							fine += aqF(x0+side/4+float64(dx)*side/2,
								y0+side/4+float64(dy)*side/2) * area / 4
						}
					}
					err := fine - coarse
					if err < 0 {
						err = -err
					}
					return fine, err > p.Tolerance && level < p.MaxLevel
				}

				// integrate refines a region to convergence without
				// touching shared memory: the sequential grain below the
				// spawn level.
				var integrate func(xi, yi, level int) float64
				integrate = func(xi, yi, level int) float64 {
					fine, refine := estimate(xi, yi, level)
					if !refine {
						return fine
					}
					sum := 0.0
					for dx := 0; dx < 2; dx++ {
						for dy := 0; dy < 2; dy++ {
							sum += integrate(xi*2+dx, yi*2+dy, level+1)
						}
					}
					return sum
				}

				var process func(task uint64)
				process = func(task uint64) {
					xi, yi, level := aqUnpack(task)
					if level >= p.SpawnLevel {
						local += toFix(integrate(xi, yi, level))
						return
					}
					fine, refine := estimate(xi, yi, level)
					if !refine {
						local += toFix(fine)
						return
					}
					// Refine in parallel: fork the four subregions.
					term.Register(env, 4)
					for dx := 0; dx < 2; dx++ {
						for dy := 0; dy < 2; dy++ {
							t := aqPack(xi*2+dx, yi*2+dy, level+1)
							if !queue.Push(env, id, t) {
								// Queue full: evaluate inline.
								process(t)
								term.Complete(env)
							}
						}
					}
				}

				backoff := sim.Cycle(50)
				maxBackoff := sim.Cycle(50 * P)
				if maxBackoff < 3200 {
					maxBackoff = 3200
				}
				attempt := int(id)
				for {
					task, ok := queue.Pop(env, id)
					if !ok {
						task, ok = queue.StealBatch(env, id, attempt, 8)
						attempt++
					}
					if !ok {
						// Node 0 is the termination detector; everyone
						// else watches the done flag (a cached read).
						if id == 0 {
							if backoff >= maxBackoff && term.Detect(env) {
								break
							}
						} else if term.Done(env) {
							break
						}
						env.Compute(backoff)
						if backoff < maxBackoff {
							backoff *= 2
						}
						continue
					}
					backoff = 50
					process(task)
					term.Complete(env)
				}
				result.Add(env, local)
				bar.Wait(env)
			}
			return Instance{Thread: thread, Probes: map[string]mem.Addr{
				"integral": result.Addr(),
			}}
		},
	}
}

// AQExact returns the analytic integral of x^4 y^4 over ((0,0),(2,2)):
// (2^5/5)^2 = 40.96, for validating runs.
func AQExact() float64 { return (32.0 / 5.0) * (32.0 / 5.0) }
