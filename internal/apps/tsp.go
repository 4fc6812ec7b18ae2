package apps

import (
	"fmt"

	"swex/internal/machine"
	"swex/internal/mem"
	"swex/internal/proc"
	"swex/internal/proto"
	"swex/internal/shm"
	"swex/internal/sim"
)

// TSPParams configures the traveling-salesman study (paper Section 6).
type TSPParams struct {
	// Cities is the tour size (the paper runs a 10-city tour).
	Cities int
	// SpawnDepth is the tree depth below which expansion is sequential;
	// tasks are spawned for prefixes shorter than this.
	SpawnDepth int
	// Seed selects the distance matrix.
	Seed uint64
	// ExpandCycles models the instruction work per tour extension.
	ExpandCycles sim.Cycle
}

// DefaultTSP matches the paper's setup at full size: a 10-city tour whose
// best-path bound is seeded with the optimal value so the amount of work
// is deterministic.
func DefaultTSP() TSPParams {
	return TSPParams{Cities: 11, SpawnDepth: 4, Seed: 20261994, ExpandCycles: 260}
}

// tspDistances builds the deterministic distance matrix.
func tspDistances(p TSPParams) [][]uint64 {
	rnd := sim.NewRand(p.Seed)
	d := make([][]uint64, p.Cities)
	for i := range d {
		d[i] = make([]uint64, p.Cities)
	}
	for i := 0; i < p.Cities; i++ {
		for j := i + 1; j < p.Cities; j++ {
			v := uint64(rnd.Intn(90) + 10)
			d[i][j], d[j][i] = v, v
		}
	}
	return d
}

// tspOptimal solves the instance exactly (Held-Karp) so the shared bound
// can be seeded with the optimal tour length, as the paper does "to ensure
// that the amount of work performed by the application is deterministic".
func tspOptimal(d [][]uint64) uint64 {
	n := len(d)
	const inf = ^uint64(0) / 2
	size := 1 << uint(n-1) // city 0 is fixed as the start
	dp := make([][]uint64, size)
	for s := range dp {
		dp[s] = make([]uint64, n-1)
		for i := range dp[s] {
			dp[s][i] = inf
		}
	}
	for i := 0; i < n-1; i++ {
		dp[1<<uint(i)][i] = d[0][i+1]
	}
	for s := 1; s < size; s++ {
		for last := 0; last < n-1; last++ {
			if dp[s][last] >= inf || s&(1<<uint(last)) == 0 {
				continue
			}
			for next := 0; next < n-1; next++ {
				if s&(1<<uint(next)) != 0 {
					continue
				}
				ns := s | 1<<uint(next)
				cost := dp[s][last] + d[last+1][next+1]
				if cost < dp[ns][next] {
					dp[ns][next] = cost
				}
			}
		}
	}
	best := inf
	for last := 0; last < n-1; last++ {
		if c := dp[size-1][last] + d[last+1][0]; c < best {
			best = c
		}
	}
	return best
}

// tspTask packs a partial tour into one word: a visited-city bitmask, the
// current city, the path cost, and the depth. Tour records additionally
// live in shared memory so consumers read producer-written blocks, which
// is the "small sets of nodes that concurrently access partial tours" the
// paper describes.
func tspPack(visited uint64, current, depth int, cost uint64) uint64 {
	return visited | uint64(current)<<16 | uint64(depth)<<24 | cost<<32
}

func tspUnpack(t uint64) (visited uint64, current, depth int, cost uint64) {
	return t & 0xFFFF, int(t >> 16 & 0xFF), int(t >> 24 & 0xFF), t >> 32
}

// TSP builds the branch-and-bound traveling salesman application. The
// shared best-path bound and the termination counter are the application's
// two globally-shared hot blocks; they are allocated in the cache sets the
// main loop's code region also maps to, reproducing the instruction/data
// thrashing of Figure 3 on direct-mapped combined caches.
func TSP(p TSPParams) Program {
	return Program{
		Name:     "TSP",
		Language: "Mul-T",
		Size:     fmt.Sprintf("%d city tour", p.Cities),
		Setup: func(m *machine.Machine) Instance {
			P := m.Cfg.Nodes
			d := tspDistances(p)
			optimal := tspOptimal(d)

			// The two hot blocks: allocated first on node 0, they land
			// in cache sets 0 and 1, directly under the main loop's
			// code region (which starts at a set-0 boundary).
			bound := m.Mem.AllocOn(0, 1)   // block 0: best path bound
			visited := m.Mem.AllocOn(0, 1) // block 1: total-tours cell
			// Per-node tour counters, merged into the total at the end:
			// a production branch-and-bound does not serialize its leaf
			// rate through one global word.
			tours := make([]mem.Addr, P)
			for n := 0; n < P; n++ {
				tours[n] = m.Mem.AllocOn(mem.NodeID(n), 1)
			}

			// Read-only distance matrix in shared memory on node 0.
			distBase := m.Mem.AllocOn(0, p.Cities*p.Cities)

			// Pad every node's allocation cursor past the code region's
			// cache sets so only the two intended blocks thrash.
			for n := 0; n < P; n++ {
				m.Mem.AllocOn(mem.NodeID(n), 10*mem.WordsPerBlock)
			}
			queue := shm.NewTaskQueue(m.Mem, P, 4096)
			term := shm.NewDistTermination(m.Mem, P)
			bar := shm.NewTreeBarrier(m.Mem, P)

			// minEdge underpins the pruning lower bound.
			minEdge := ^uint64(0)
			for i := 0; i < p.Cities; i++ {
				for j := 0; j < p.Cities; j++ {
					if i != j && d[i][j] < minEdge {
						minEdge = d[i][j]
					}
				}
			}

			thread := func(env *proc.Env) {
				if env.Thread() > 0 {
					// The program runs one context per node; the barrier and the
					// termination detector count nodes, so further contexts idle.
					return
				}
				id := env.ID()
				// Initialization code region: harmless sets.
				env.SetCode(proc.CodeSpace+3200*mem.WordsPerBlock, 12)
				if id == 0 {
					env.Write(bound, optimal)
					for i := 0; i < p.Cities; i++ {
						for j := 0; j < p.Cities; j++ {
							env.Write(distBase+mem.Addr(i*p.Cities+j), d[i][j])
						}
					}
					// Root task: at city 0, nothing else visited.
					term.Register(env, 1)
					queue.Push(env, 0, tspPack(0, 0, 0, 0))
				}
				bar.Wait(env)

				// Main search loop: its code region covers cache sets
				// 0..7, colliding with the bound and counter blocks
				// (sets 0 and 1) — and with nothing else: the other
				// shared structures are padded past set 8.
				env.SetCode(proc.CodeSpace, 8)

				dist := func(i, j int) uint64 {
					return env.Read(distBase + mem.Addr(i*p.Cities+j))
				}

				// expand processes a partial tour; prefixes shallower
				// than SpawnDepth fork children into the task queue,
				// deeper ones recurse sequentially.
				var localTours uint64
				var expand func(visitedSet uint64, current, depth int, cost uint64)
				expand = func(visitedSet uint64, current, depth int, cost uint64) {
					b := env.Read(bound)
					if depth == p.Cities-1 {
						total := cost + dist(current, 0)
						localTours++
						if total < b {
							env.RMW(bound, proto.RMW{Kind: proto.RMWMin, Arg: total})
						}
						return
					}
					remaining := uint64(p.Cities - 1 - depth)
					for next := 1; next < p.Cities; next++ {
						bit := uint64(1) << uint(next)
						if visitedSet&bit != 0 {
							continue
						}
						env.Compute(p.ExpandCycles)
						c := cost + dist(current, next)
						if c+remaining*minEdge > b {
							continue // prune: cannot beat the bound
						}
						if depth+1 < p.SpawnDepth {
							term.Register(env, 1)
							task := tspPack(visitedSet|bit, next, depth+1, c)
							if !queue.Push(env, id, task) {
								// Queue full: execute inline instead.
								term.Complete(env)
								expand(visitedSet|bit, next, depth+1, c)
							}
						} else {
							expand(visitedSet|bit, next, depth+1, c)
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
						// Exponential backoff keeps idle thieves from
						// saturating the queues and the network.
						env.Compute(backoff)
						if backoff < maxBackoff {
							backoff *= 2
						}
						continue
					}
					backoff = 50
					v, cur, depth, cost := tspUnpack(task)
					expand(v, cur, depth, cost)
					term.Complete(env)
				}
				env.Write(tours[id], localTours)
				bar.Wait(env)
				if id == 0 {
					var sum uint64
					for n := 0; n < P; n++ {
						sum += env.Read(tours[n])
					}
					env.Write(visited, sum)
				}
				bar.Wait(env)
			}
			return Instance{Thread: thread, Probes: map[string]mem.Addr{
				"bound":   bound,
				"tours":   visited,
				"optimal": mem.Addr(optimal), // not an address: the known optimum, for checks
			}}
		},
	}
}
