package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
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
// swex-sim-v5: the livelock watchdog, which deferred handler starts on a
// node whose handler backlog passed 2,000 cycles, was deleted; handler
// timing moved in every run it had fired in.
// swex-sim-v6: the directoryless spec flag and the memory-tier and
// hardware-latency overrides left the machine configuration and the key;
// no simulated result moved.
const codeVersion = "swex-sim-v6"

// Names of the ablation workloads (internal/apps) a ProgramRef can carry in
// App, beside WorkerName, LitmusName, and the six paper applications.
const (
	HomeShareName  = "home-share"
	TokenRingName  = "token-ring"
	MissStreamName = "miss-stream"
)

// ProgramRef names a workload canonically, so a job can be hashed,
// cached, and re-resolved in a later process.
type ProgramRef struct {
	// App is WorkerName, LitmusName, an ablation workload
	// (HomeShareName, TokenRingName, MissStreamName), or one of the paper
	// names in apps.Registry (TSP, AQ, SMGRID, EVOLVE, MP3D, WATER).
	App string
	// Quick selects the reduced problem size from apps.QuickRegistry.
	// Ignored for WORKER, whose size is explicit.
	Quick bool
	// CICO adds WORKER's check-in annotations (apps.WorkerParams.CICO).
	CICO bool
	// SetSize is the WORKER worker-set size (App == WorkerName).
	SetSize int
	// Iters is the WORKER iteration count, the token-ring lap count, or
	// the miss-stream blocks per hardware context (whose context count is
	// Config.ThreadsPerNode).
	Iters int
	// Litmus is the canonical litmus-program encoding (App ==
	// LitmusName), produced by litmus.Program.String. The encoding is
	// part of the job key, so every distinct program is a distinct
	// cacheable computation.
	Litmus string
	// FullMapRegion, when non-empty, names an apps.Instance region whose
	// blocks Execute reconfigures to the full-map protocol after Setup and
	// before the run: block-by-block protocol selection
	// (machine.ConfigureBlock), the paper's "data specific" coherence.
	FullMapRegion string
}

// Resolve looks the reference up in the workload registries.
func (p ProgramRef) Resolve() (apps.Program, error) {
	switch p.App {
	case WorkerName:
		if p.SetSize <= 0 || p.Iters <= 0 {
			return apps.Program{}, fmt.Errorf("sweep: WORKER job needs positive SetSize and Iters (got %d, %d)", p.SetSize, p.Iters)
		}
		return apps.Worker(apps.WorkerParams{SetSize: p.SetSize, Iters: p.Iters, CICO: p.CICO}), nil
	case LitmusName:
		prog, err := litmus.Parse(p.Litmus)
		if err != nil {
			return apps.Program{}, err
		}
		return prog.AppProgram(), nil
	case HomeShareName:
		return apps.HomeShare(), nil
	case TokenRingName, MissStreamName:
		if p.Iters <= 0 {
			return apps.Program{}, fmt.Errorf("sweep: %s job needs positive Iters (got %d)", p.App, p.Iters)
		}
		if p.App == TokenRingName {
			return apps.TokenRing(p.Iters), nil
		}
		return apps.MissStream(p.Iters), nil
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

// ErrKeyField reports a string the job key would embed that contains one
// of the key's metacharacters, '|' or '='. Such a string could render two
// different jobs as one key, so the job is not hashable.
var ErrKeyField = errors.New("sweep: key field contains a key metacharacter ('|' or '=')")

// Key renders the job as a canonical string: every field that influences
// the simulation outcome, in a fixed order, plus the code-version salt.
// Configurations that cannot be described canonically (an installed trace
// sink or custom protocol software) are rejected — their behavior is not
// captured by the key, so caching them would alias distinct computations.
// So is a salt, program field or spec name containing '|' or '='
// (ErrKeyField).
func (j Job) Key(salt string) (string, error) {
	if j.Config.Trace != nil {
		return "", fmt.Errorf("sweep: job %s has a trace sink installed; traced runs are not cacheable", j.Program.App)
	}
	if j.Config.CustomSoftware != nil {
		return "", fmt.Errorf("sweep: job %s has custom protocol software installed; its identity cannot be hashed", j.Program.App)
	}
	c := j.Config
	s := c.Spec
	for _, f := range [...]struct{ name, v string }{
		{"salt", salt}, {"app", j.Program.App}, {"litmus", j.Program.Litmus},
		{"fmregion", j.Program.FullMapRegion}, {"spec", s.Name},
	} {
		if strings.ContainsAny(f.v, "|=") {
			return "", fmt.Errorf("%w: %s %q", ErrKeyField, f.name, f.v)
		}
	}
	var b keyBuilder
	// Size the buffer once: the fixed fields fit in 384 bytes, and growing
	// by doubling would allocate a chain of buffers and keep up to twice
	// the key's length alive in every Outcome.
	b.Grow(384 + len(salt) + len(j.Program.App) + len(j.Program.Litmus) + len(j.Program.FullMapRegion) + len(s.Name))
	b.WriteString(codeVersion)
	b.putStr("salt", salt)
	b.putStr("app", j.Program.App)
	b.putBool("quick", j.Program.Quick)
	b.putInt("set", int64(j.Program.SetSize))
	b.putInt("iters", int64(j.Program.Iters))
	b.putBool("cico", j.Program.CICO)
	b.putStr("litmus", j.Program.Litmus)
	b.putStr("fmregion", j.Program.FullMapRegion)
	b.putInt("nodes", int64(c.Nodes))
	b.putInt("loseinv", int64(c.LoseInv))
	b.putStr("spec", s.Name)
	b.putInt("hw", int64(s.HWPointers))
	b.putBool("fullmap", s.FullMap)
	b.putBool("localbit", s.LocalBit)
	b.putInt("ack", int64(s.AckMode))
	b.putBool("bcast", s.Broadcast)
	b.putBool("swonly", s.SoftwareOnly)
	b.putInt("soft", int64(c.Software))
	b.putInt("victim", int64(c.VictimLines))
	b.putBool("pifetch", c.PerfectIfetch)
	b.putBool("batch", c.BatchReads)
	b.putBool("parinv", c.ParallelInv)
	b.putBool("mig", c.MigratoryDetect)
	b.putInt("threads", int64(c.ThreadsPerNode))
	b.putInt("clines", int64(c.CacheLines))
	b.putInt("cways", int64(c.CacheWays))
	b.putInt("limit", int64(j.Limit))
	return b.String(), nil
}

// keyBuilder renders a key's "|field=value" pairs. Values are written
// as fmt's %v would print them (decimal integers, true/false), so the
// key bytes of every job, and with them existing cache directories, are
// those of the fmt-based renderer this replaced.
type keyBuilder struct{ strings.Builder }

func (b *keyBuilder) field(name string) {
	b.WriteByte('|')
	b.WriteString(name)
	b.WriteByte('=')
}

func (b *keyBuilder) putStr(name, v string) {
	b.field(name)
	b.WriteString(v)
}

func (b *keyBuilder) putInt(name string, v int64) {
	b.field(name)
	var num [20]byte
	b.Write(strconv.AppendInt(num[:0], v, 10))
}

func (b *keyBuilder) putBool(name string, v bool) {
	b.field(name)
	b.WriteString(strconv.FormatBool(v))
}

// HashKey returns the content address of a canonical key: the hex SHA-256.
func HashKey(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}
