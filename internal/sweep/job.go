package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"swex/internal/apps"
	"swex/internal/litmus"
	"swex/internal/machine"
	"swex/internal/sim"
)

// WorkerName is the ProgramRef.App value naming the WORKER synthetic
// benchmark (paper Section 5). The six applications use their paper names.
const WorkerName = "WORKER"

// LitmusName is the ProgramRef.App value naming a litmus test; the
// program itself lives in ProgramRef.Litmus.
const LitmusName = litmus.AppName

// codeVersion salts every job key. Bump it whenever a change alters
// simulation results (cycle counts, handler accounting, protocol
// behavior), so stale cache entries from the previous semantics can never
// satisfy a new sweep. Purely additive changes (new fields captured into
// Result) also require a bump, since cached objects would lack them.
// swex-sim-v4: canonical (owner, cnt) event keys replaced issue-order
// sequencing for same-cycle events (DESIGN.md §8), shifting cycle
// counts by under a percent on every exhibit.
const codeVersion = "swex-sim-v4"

// ProgramRef names a workload canonically, so a job can be hashed,
// journaled, and re-resolved in a later process.
type ProgramRef struct {
	// App is WorkerName, LitmusName, or one of the paper names in
	// apps.Registry (TSP, AQ, SMGRID, EVOLVE, MP3D, WATER).
	App string
	// Quick selects the reduced problem size from apps.QuickRegistry.
	// Ignored for WORKER, whose size is explicit.
	Quick bool
	// SetSize is the WORKER worker-set size (App == WorkerName).
	SetSize int
	// Iters is the WORKER iteration count (App == WorkerName).
	Iters int
	// Litmus is the canonical litmus-program encoding (App ==
	// LitmusName), produced by litmus.Program.String. The encoding is
	// part of the job key, so every distinct program is a distinct
	// cacheable computation.
	Litmus string
}

// Resolve looks the reference up in the application registry.
func (p ProgramRef) Resolve() (apps.Program, error) {
	if p.App == WorkerName {
		if p.SetSize <= 0 || p.Iters <= 0 {
			return apps.Program{}, fmt.Errorf("sweep: WORKER job needs positive SetSize and Iters (got %d, %d)", p.SetSize, p.Iters)
		}
		return apps.Worker(apps.WorkerParams{SetSize: p.SetSize, Iters: p.Iters}), nil
	}
	if p.App == LitmusName {
		prog, err := litmus.Parse(p.Litmus)
		if err != nil {
			return apps.Program{}, err
		}
		return prog.AppProgram(), nil
	}
	registry := apps.Registry()
	if p.Quick {
		registry = apps.QuickRegistry()
	}
	for _, prog := range registry {
		if prog.Name == p.App {
			return prog, nil
		}
	}
	return apps.Program{}, fmt.Errorf("sweep: unknown application %q", p.App)
}

// Job is one point of an experiment matrix: a workload on a machine
// configuration, with an optional per-job simulated-cycle budget. Two jobs
// with equal keys describe the same computation and share a cache entry.
type Job struct {
	// Program names the workload.
	Program ProgramRef
	// Config is the machine configuration the workload runs on.
	Config machine.Config
	// Limit bounds the run in simulated cycles (0 = the runner default, or
	// unbounded). Exceeding it records a failure, not a hang.
	Limit sim.Cycle
}

// WorkerJob builds a WORKER job.
func WorkerJob(setSize, iters int, cfg machine.Config) Job {
	return Job{
		Program: ProgramRef{App: WorkerName, SetSize: setSize, Iters: iters},
		Config:  cfg,
	}
}

// AppJob builds a job for one of the six applications by paper name.
func AppJob(name string, quick bool, cfg machine.Config) Job {
	return Job{Program: ProgramRef{App: name, Quick: quick}, Config: cfg}
}

// LitmusJob builds a job running the litmus program on the configuration;
// the program's observation log is captured into Result.Obs for the
// sequential-consistency oracle.
func LitmusJob(p litmus.Program, cfg machine.Config) Job {
	return Job{Program: ProgramRef{App: LitmusName, Litmus: p.String()}, Config: cfg}
}

// Key renders the job as a canonical string: every field that influences
// the simulation outcome, in a fixed order, plus the code-version salt.
// Configurations that cannot be described canonically (an installed trace
// sink or custom protocol software) are rejected — their behavior is not
// captured by the key, so caching them would alias distinct computations.
func (j Job) Key(salt string) (string, error) {
	if j.Config.Trace != nil {
		return "", fmt.Errorf("sweep: job %s has a trace sink installed; traced runs are not cacheable", j.Program.App)
	}
	if j.Config.CustomSoftware != nil {
		return "", fmt.Errorf("sweep: job %s has custom protocol software installed; its identity cannot be hashed", j.Program.App)
	}
	if strings.ContainsAny(j.Program.App, "|=") {
		return "", fmt.Errorf("sweep: program name %q contains key metacharacters", j.Program.App)
	}
	if strings.ContainsAny(j.Program.Litmus, "|=") {
		return "", fmt.Errorf("sweep: litmus encoding %q contains key metacharacters", j.Program.Litmus)
	}
	c := j.Config
	s := c.Spec
	t := c.Timing
	var b strings.Builder
	put := func(field string, v any) {
		fmt.Fprintf(&b, "|%s=%v", field, v)
	}
	b.WriteString(codeVersion)
	put("salt", salt)
	put("app", j.Program.App)
	put("quick", j.Program.Quick)
	put("set", j.Program.SetSize)
	put("iters", j.Program.Iters)
	put("litmus", j.Program.Litmus)
	put("nodes", c.Nodes)
	put("loseinv", c.LoseInv)
	put("spec", s.Name)
	put("hw", s.HWPointers)
	put("fullmap", s.FullMap)
	put("localbit", s.LocalBit)
	put("ack", int(s.AckMode))
	put("bcast", s.Broadcast)
	put("swonly", s.SoftwareOnly)
	put("dls", s.Directoryless)
	put("soft", int(c.Software))
	put("victim", c.VictimLines)
	put("pifetch", c.PerfectIfetch)
	put("batch", c.BatchReads)
	put("parinv", c.ParallelInv)
	put("mig", c.MigratoryDetect)
	put("threads", c.ThreadsPerNode)
	put("clines", c.CacheLines)
	put("cways", c.CacheWays)
	put("tmem", int64(t.MemLatency))
	put("thome", int64(t.HomeProc))
	put("tfill", int64(t.CacheFill))
	put("tretry", int64(t.RetryDelay))
	put("freq", t.ReqFlits)
	put("fdata", t.DataFlits)
	put("fctl", t.CtlFlits)
	mt := c.MemTier
	put("mtkind", int(mt.Kind))
	put("mthops", mt.Far.Hops)
	put("mthopcyc", int64(mt.Far.HopCycles))
	put("mtflitcyc", int64(mt.Far.FlitCycles))
	put("mtflits", mt.Far.Flits)
	put("mtmemcyc", int64(mt.Far.MemCycles))
	put("mtdread", int64(mt.DRAMRead))
	put("mtdwrite", int64(mt.DRAMWrite))
	put("mtnread", int64(mt.NVMRead))
	put("mtnwrite", int64(mt.NVMWrite))
	put("mtdblocks", mt.DRAMBlocks)
	put("mtpromote", mt.PromoteAfter)
	put("limit", int64(j.Limit))
	return b.String(), nil
}

// HashKey returns the content address of a canonical key: the hex SHA-256.
func HashKey(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}
