package apps

import (
	"fmt"

	"swex/internal/machine"
	"swex/internal/mem"
	"swex/internal/proc"
	"swex/internal/shm"
	"swex/internal/sim"
)

// SMGridParams configures the static multigrid solver (paper Section 6):
// Jacobi-style relaxation on a pyramid of grids solving an elliptical PDE.
type SMGridParams struct {
	// Size is the finest grid dimension (paper: 129x129; scaled here).
	Size int
	// Levels is the pyramid depth.
	Levels int
	// VCycles is the number of V-cycles performed.
	VCycles int
	// Sweeps is the number of relaxation sweeps at each level visit.
	Sweeps int
	// PointCycles models the arithmetic per grid-point update.
	PointCycles sim.Cycle
}

// DefaultSMGrid scales the paper's 129x129 run down to 33x33 with a
// three-level pyramid.
func DefaultSMGrid() SMGridParams {
	return SMGridParams{Size: 65, Levels: 3, VCycles: 2, Sweeps: 3, PointCycles: 28}
}

// smLevel holds the shared-memory layout of one grid level: two buffers
// (Jacobi ping-pong), distributed by rows across the nodes.
type smLevel struct {
	n    int           // grid dimension
	rows [][2]mem.Addr // per-row base address of each buffer
}

// SMGrid builds the multigrid application. Speedup is limited because only
// a subset of nodes has rows at the coarser levels of the pyramid, and
// data is shared more widely than in TSP or AQ: every relaxation reads
// neighboring rows owned by other nodes, and restriction/interpolation
// read across levels.
func SMGrid(p SMGridParams) Program {
	return Program{
		Name:     "SMGRID",
		Language: "Mul-T",
		Size:     fmt.Sprintf("%d x %d", p.Size, p.Size),
		Setup: func(m *machine.Machine) Instance {
			P := m.Cfg.Nodes
			bar := shm.NewTreeBarrier(m.Mem, P)

			levels := make([]*smLevel, p.Levels)
			n := p.Size
			for l := range levels {
				lv := &smLevel{n: n, rows: make([][2]mem.Addr, n)}
				for r := 0; r < n; r++ {
					// Contiguous strips: only strip-boundary rows are
					// shared between neighboring owners.
					owner := mem.NodeID(r * P / n)
					lv.rows[r][0] = m.Mem.AllocOn(owner, n)
					lv.rows[r][1] = m.Mem.AllocOn(owner, n)
				}
				levels[l] = lv
				n = n/2 + 1
			}

			at := func(lv *smLevel, buf, r, c int) mem.Addr {
				return lv.rows[r][buf] + mem.Addr(c)
			}

			thread := func(env *proc.Env) {
				if env.Thread() > 0 {
					// The program runs one context per node; the barrier and the
					// strip partition count nodes, so further contexts idle.
					return
				}
				id := int(env.ID())
				env.SetCode(proc.CodeSpace+3300*mem.WordsPerBlock, 14)

				// ownedRows yields this node's strip on a level.
				ownedRows := func(n int) (lo, hi int) {
					lo = (id*n + P - 1) / P
					hi = ((id+1)*n + P - 1) / P
					if hi > n {
						hi = n
					}
					return lo, hi
				}

				// Initialize owned rows of the finest grid: boundary
				// condition u = 1 on the edges, 0 inside, both buffers.
				fin := levels[0]
				lo0, hi0 := ownedRows(fin.n)
				for r := lo0; r < hi0; r++ {
					for c := 0; c < fin.n; c++ {
						v := uint64(0)
						if r == 0 || c == 0 || r == fin.n-1 || c == fin.n-1 {
							v = toFix(1.0)
						}
						env.Write(at(fin, 0, r, c), v)
						env.Write(at(fin, 1, r, c), v)
					}
				}
				bar.Wait(env)

				// relax performs Jacobi sweeps on a level, ping-ponging
				// buffers; every node sweeps its own rows and reads the
				// neighboring rows in place.
				relax := func(lv *smLevel, buf int) int {
					for s := 0; s < p.Sweeps; s++ {
						src, dst := buf, 1-buf
						lo, hi := ownedRows(lv.n)
						for r := lo; r < hi; r++ {
							if r == 0 || r == lv.n-1 {
								continue
							}
							for c := 1; c < lv.n-1; c++ {
								up := env.Read(at(lv, src, r-1, c))
								down := env.Read(at(lv, src, r+1, c))
								left := env.Read(at(lv, src, r, c-1))
								right := env.Read(at(lv, src, r, c+1))
								env.Compute(p.PointCycles)
								env.Write(at(lv, dst, r, c), (up+down+left+right)/4)
							}
						}
						bar.Wait(env)
						buf = dst
					}
					return buf
				}

				// restrict injects fine-grid values into the coarse grid.
				restrict := func(fine *smLevel, fbuf int, coarse *smLevel) {
					lo, hi := ownedRows(coarse.n)
					for r := lo; r < hi; r++ {
						for c := 0; c < coarse.n; c++ {
							fr, fc := r*2, c*2
							if fr >= fine.n {
								fr = fine.n - 1
							}
							if fc >= fine.n {
								fc = fine.n - 1
							}
							v := env.Read(at(fine, fbuf, fr, fc))
							env.Write(at(coarse, 0, r, c), v)
							env.Write(at(coarse, 1, r, c), v)
						}
					}
					bar.Wait(env)
				}

				// interpolate pushes coarse corrections back to the fine
				// grid (injection at coincident points).
				interpolate := func(coarse *smLevel, cbuf int, fine *smLevel, fbuf int) {
					lo, hi := ownedRows(coarse.n)
					for r := lo; r < hi; r++ {
						fr := r * 2
						if fr == 0 || fr >= fine.n-1 {
							continue
						}
						for c := 1; c < coarse.n-1; c++ {
							fc := c * 2
							if fc >= fine.n-1 {
								continue
							}
							v := env.Read(at(coarse, cbuf, r, c))
							env.Write(at(fine, fbuf, fr, fc), v)
						}
					}
					bar.Wait(env)
				}

				bufs := make([]int, p.Levels)
				for cyc := 0; cyc < p.VCycles; cyc++ {
					// Downstroke: relax then restrict at each level.
					for l := 0; l < p.Levels-1; l++ {
						bufs[l] = relax(levels[l], bufs[l])
						restrict(levels[l], bufs[l], levels[l+1])
						bufs[l+1] = 0
					}
					// Bottom: relax the coarsest grid.
					last := p.Levels - 1
					bufs[last] = relax(levels[last], bufs[last])
					// Upstroke: interpolate then relax.
					for l := p.Levels - 2; l >= 0; l-- {
						interpolate(levels[l+1], bufs[l+1], levels[l], bufs[l])
						bufs[l] = relax(levels[l], bufs[l])
					}
				}
			}
			return Instance{Thread: thread, Probes: map[string]mem.Addr{
				"center0": levels[0].rows[p.Size/2][0] + mem.Addr(p.Size/2),
				"center1": levels[0].rows[p.Size/2][1] + mem.Addr(p.Size/2),
			}}
		},
	}
}
