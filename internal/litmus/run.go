package litmus

import (
	"errors"
	"fmt"
	"sort"
	"strconv"

	"swex/internal/apps"
	"swex/internal/machine"
	"swex/internal/mem"
	"swex/internal/proc"
	"swex/internal/proto"
	"swex/internal/shm"
	"swex/internal/sim"
)

// AppName is the apps.Program name litmus programs run under; the sweep
// layer uses it as the ProgramRef.App marker for litmus jobs.
const AppName = "LITMUS"

// ErrAlias flags a protocol alias SpecByAlias does not resolve; the error
// it returns wraps ErrAlias with the alias.
var ErrAlias = errors.New("litmus: unknown protocol alias")

// specAliases is the protocol-spectrum alias table, the flag vocabulary of
// the command-line tools, in SpecAliases order. SpecByAlias and
// SpecAliases both read it, so an alias reaches both or neither.
var specAliases = []struct {
	alias string
	spec  func() proto.Spec
}{
	{"full", proto.FullMap},
	{"h5", func() proto.Spec { return proto.LimitLESS(5) }},
	{"h4", func() proto.Spec { return proto.LimitLESS(4) }},
	{"h3", func() proto.Spec { return proto.LimitLESS(3) }},
	{"h2", func() proto.Spec { return proto.LimitLESS(2) }},
	{"h1", func() proto.Spec { return proto.OnePointer(proto.AckHW) }},
	{"h1lack", func() proto.Spec { return proto.OnePointer(proto.AckLACK) }},
	{"h1ack", func() proto.Spec { return proto.OnePointer(proto.AckSW) }},
	{"h0", proto.SoftwareOnly},
	{"dir1sw", proto.Dir1SW},
}

// SpecByAlias resolves a protocol-spectrum alias (see SpecAliases).
func SpecByAlias(alias string) (proto.Spec, error) {
	for _, a := range specAliases {
		if a.alias == alias {
			return a.spec(), nil
		}
	}
	return proto.Spec{}, fmt.Errorf("%w %q", ErrAlias, alias)
}

// SpecAliases returns every spectrum alias SpecByAlias resolves, ordered
// from most hardware (full map) to least (software-only, then the
// one-pointer Dir_1 SW variant).
func SpecAliases() []string {
	aliases := make([]string, len(specAliases))
	for i, a := range specAliases {
		aliases[i] = a.alias
	}
	return aliases
}

// CompatibleBase reports whether a machine built on the base spec can
// host every per-variable protocol override of p. This mirrors
// proto.HomeCtl.Configure's expressibility rule: a hardware-only
// override (full map) is expressible anywhere, while a software
// override needs the base machine to carry protocol software of the
// same family — the software-only Dir_nH_0 handlers and the
// limited-pointer extension handlers are different programs, and a
// full-map machine installs none at all. Unknown override aliases also
// report false.
func CompatibleBase(p Program, base proto.Spec) bool {
	for v := 0; v < p.Vars; v++ {
		alias, ok := p.Specs[v]
		if !ok {
			continue
		}
		spec, err := SpecByAlias(alias)
		if err != nil {
			return false
		}
		if !spec.UsesSoftware() {
			continue
		}
		if !base.UsesSoftware() || spec.SoftwareOnly != base.SoftwareOnly {
			return false
		}
	}
	return true
}

// AppProgram compiles the litmus program into an apps.Program: setup
// allocates each variable its own cache block (staggered so no two
// variables share a direct-mapped cache set), applies per-variable
// protocol overrides, and returns an instance whose threads execute the
// program's operations and log observations into Instance.Observations.
func (p Program) AppProgram() apps.Program {
	return apps.Program{Name: AppName, Setup: p.setup}
}

// probeNames names each variable's probe, "v0" to "v15", built once
// rather than formatted per variable per run.
var probeNames = func() (names [maxVars]string) {
	for i := range names {
		names[i] = "v" + strconv.Itoa(i)
	}
	return names
}()

// setup builds the program's shared state on m.
func (p Program) setup(m *machine.Machine) apps.Instance {
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("litmus: %v", err))
	}
	nodes := m.Mem.Nodes()
	if len(p.Threads) > nodes {
		panic(fmt.Sprintf("litmus: %d threads on a %d-node machine", len(p.Threads), nodes))
	}
	tpn := m.Cfg.Threads()
	// One block per variable, homes striped across nodes. The pad before
	// each allocation staggers the block index within the segment, so no
	// two variables ever map to the same direct-mapped cache set — a
	// conflict eviction would silently refresh a stale copy and hide the
	// very reorderings the tests exist to hunt.
	addrs := make([]mem.Addr, p.Vars)
	probes := make(map[string]mem.Addr, p.Vars)
	blocks := make([]mem.Addr, p.Vars)
	for i := range addrs {
		home := mem.NodeID(i % nodes)
		if i > 0 {
			m.Mem.AllocOn(home, i*mem.WordsPerBlock)
		}
		addrs[i] = m.Mem.AllocOn(home, mem.WordsPerBlock)
		probes[probeNames[i]] = addrs[i]
		blocks[i] = mem.BlockOf(addrs[i]).Base()
	}
	if len(p.Specs) > 0 {
		vs := make([]int, 0, len(p.Specs))
		for v := range p.Specs {
			vs = append(vs, v)
		}
		sort.Ints(vs)
		for _, v := range vs {
			spec, err := SpecByAlias(p.Specs[v])
			if err != nil {
				panic(fmt.Sprintf("litmus: %v", err))
			}
			if err := m.ConfigureBlock(mem.BlockOf(addrs[v]), spec); err != nil {
				panic(fmt.Sprintf("litmus: configuring v%d: %v", v, err))
			}
		}
	}
	log := shm.NewObsLog(nodes, tpn)
	threads := p.Threads
	return apps.Instance{
		Thread: func(env *proc.Env) {
			t := int(env.ID())
			if t >= len(threads) || env.Thread() != 0 {
				return
			}
			for _, op := range threads[t] {
				switch op.Kind {
				case OpRead:
					log.Observe(env, addrs[op.Var])
				case OpWrite:
					env.Write(addrs[op.Var], op.Arg)
				case OpRMW:
					old := env.RMW(addrs[op.Var], proto.RMW{Kind: proto.RMWSwap, Arg: op.Arg})
					log.Record(env, old)
				case OpFence:
					env.CheckIn(addrs[op.Var])
				case OpCompute:
					env.Compute(sim.Cycle(op.Arg))
				}
			}
		},
		Probes:       probes,
		Regions:      map[string][]mem.Addr{"vars": blocks},
		Observations: log,
	}
}

// ThreadObs extracts the program threads' observation lists from a
// machine-shaped observation dump (nodes × threadsPerNode dense slots, as
// captured into sweep results): thread t of the program ran as context 0
// of node t. Observations in any other slot — a context the program never
// uses — are an error.
func ThreadObs(p Program, dump [][]uint64, threadsPerNode int) ([][]uint64, error) {
	if threadsPerNode < 1 {
		threadsPerNode = 1
	}
	out := make([][]uint64, len(p.Threads))
	for t := range p.Threads {
		slot := t * threadsPerNode
		if slot >= len(dump) {
			return nil, fmt.Errorf("litmus: dump has %d slots, thread %d needs slot %d", len(dump), t, slot)
		}
		out[t] = dump[slot]
	}
	for i, vals := range dump {
		if len(vals) == 0 {
			continue
		}
		if i%threadsPerNode != 0 || i/threadsPerNode >= len(p.Threads) {
			return nil, fmt.Errorf("litmus: slot %d logged %d values but no program thread ran there", i, len(vals))
		}
	}
	return out, nil
}

// WeakenedFixture returns the oracle's negative control: a
// message-passing-shaped program and a machine configuration weakened to
// silently drop the run's first invalidation (machine.Config.LoseInv = 1;
// the protocol checker is off by default). The writer publishes data then
// a flag; the dropped invalidation leaves the reader's cached copy of the
// data stale, so the reader observes the flag's new value and then the
// data's old one — an outcome no sequentially consistent order explains,
// which the oracle must flag with a constraint-cycle witness. A fuzzing
// pipeline that fails to flag this run is broken.
func WeakenedFixture(nodes int) (Program, machine.Config) {
	if nodes < 2 {
		panic(fmt.Sprintf("litmus: weakened fixture needs at least 2 nodes, got %d", nodes))
	}
	// t1 caches v0 early; t0 writes v0 (the invalidation is dropped),
	// then the flag v1. t1's delay outlasts both writes, so it reads the
	// new flag and the stale data from its unmolested cached block.
	p := MustParse("v2;t0:C200,W0:1,W1:2;t1:R0,C600,R1,R0")
	cfg := machine.DefaultConfig(nodes, proto.FullMap())
	cfg.LoseInv = 1
	return p, cfg
}
