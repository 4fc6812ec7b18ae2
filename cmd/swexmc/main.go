// Command swexmc exhaustively model-checks the coherence protocol
// spectrum. It explores every interleaving of a small action alphabet
// (per-node read, write, evict, CICO check-in/check-out, and optionally
// watch) on a small machine built from the real simulator stack,
// asserting the coherence invariants — single writer, identical readers,
// directory–cache agreement, quiescence, no lost wakeups — on every
// reachable state.
//
// Usage:
//
//	swexmc [-spec all] [-nodes 2] [-blocks 1] [-ops 4] [-por]
//	       [-watch] [-configure alias,alias,...] [-mig] [-batch]
//	       [-max-states N] [-drop-inv N]
//	       [-cpuprofile FILE] [-memprofile FILE]
//
// Protocols are named by the litmus.SpecAliases() vocabulary that swexrun
// and swexfuzz take (full, h5..h2, h1, h1lack, h1ack, h0, dir1sw). With
// -spec all (the default) every protocol in the paper's spectrum is
// checked, plus the Dir1SW cooperative-shared-memory variant.
// -watch adds the producer–consumer pair to the alphabet. -configure
// gives block i the i-th named protocol as a per-block override (an empty
// element keeps the machine default), checking a mixed-spec machine.
// -por enables sleep-set partial-order reduction, which preserves every
// verdict and every quiescent state while pruning equivalent
// interleavings; the pruned-edge count is printed per run. -drop-inv N
// seeds a protocol bug — the Nth invalidation message is silently
// dropped — and the checker finds the shortest interleaving that turns
// the lost message into an invariant violation, demonstrating the
// counterexample machinery. -cpuprofile and -memprofile write a CPU
// profile of the whole run and a heap profile taken at its end, in
// runtime/pprof format, to the named files (for `go tool pprof`); they
// change nothing printed.
//
// Exit status: 0 when every checked protocol satisfies the invariants,
// 1 when a violation was found (the counterexample is printed), 2 on
// usage errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"swex/cmd/internal/hostprof"
	"swex/internal/litmus"
	"swex/internal/mc"
	"swex/internal/proto"
)

func main() { os.Exit(run()) }

// run is the command; it returns the exit status, so deferred profile
// writes happen before the process exits.
func run() int {
	spec := flag.String("spec", "all", "protocol alias to check, or \"all\" for the full spectrum")
	nodes := flag.Int("nodes", 2, "machine size (2..8; exhaustive runs want 2 or 3)")
	blocks := flag.Int("blocks", 1, "tracked blocks (1..4), block i homed on node i mod nodes")
	ops := flag.Int("ops", 4, "operation budget per trace (exploration depth)")
	maxStates := flag.Int("max-states", 0, "visited-set bound (0 = package default)")
	por := flag.Bool("por", false, "enable sleep-set partial-order reduction")
	watch := flag.Bool("watch", false, "add the watch action (producer-consumer pairs) to the alphabet")
	configure := flag.String("configure", "", "comma-separated per-block protocol aliases; empty element keeps the machine default")
	mig := flag.Bool("mig", false, "enable migratory-data detection on the checked machine")
	batch := flag.Bool("batch", false, "enable read-burst batching on the checked machine")
	dropInv := flag.Int("drop-inv", 0, "seed a bug: silently drop the Nth invalidation message")
	profiles := hostprof.Register(flag.CommandLine)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "swexmc: unexpected arguments %v\n", flag.Args())
		flag.Usage()
		return 2
	}

	specs, err := resolveSpecs(*spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "swexmc: %v\n", err)
		return 2
	}
	overrides, err := resolveOverrides(*configure)
	if err != nil {
		fmt.Fprintf(os.Stderr, "swexmc: %v\n", err)
		return 2
	}
	stopProfiles, err := profiles.Start("swexmc")
	if err != nil {
		fmt.Fprintf(os.Stderr, "swexmc: %v\n", err)
		return 2
	}
	defer stopProfiles()

	var actions []mc.Action
	if *watch {
		actions = append(mc.DefaultActions(), mc.ActWatch)
	}
	for _, s := range specs {
		cfg := mc.Config{
			Spec:            s,
			Nodes:           *nodes,
			Blocks:          *blocks,
			MaxOps:          *ops,
			MaxStates:       *maxStates,
			POR:             *por,
			Actions:         actions,
			Overrides:       overrides,
			MigratoryDetect: *mig,
			BatchReads:      *batch,
			Fault:           proto.Fault{Kind: proto.MsgINV, Nth: *dropInv},
		}
		res, err := mc.Check(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "swexmc: %s: %v\n", s.Name, err)
			return 2
		}
		bounded := ""
		if res.Bounded {
			bounded = " (bounded: state space not exhausted)"
		}
		reduced := ""
		if *por {
			reduced = fmt.Sprintf("  %7d slept", res.SleptTransitions)
		}
		fmt.Printf("%-14s %8d states %9d transitions  depth %3d  %6d quiescent%s%s\n",
			s.Name, res.States, res.Transitions, res.MaxDepth, res.Quiescent, reduced, bounded)
		if res.Violation != nil {
			fmt.Printf("VIOLATION %s\n", res.Violation)
			text, err := mc.Explain(cfg, res.Violation)
			if err != nil {
				fmt.Fprintf(os.Stderr, "swexmc: replaying counterexample: %v\n", err)
				return 2
			}
			fmt.Print(text)
			return 1
		}
	}
	return 0
}

// resolveSpecs maps the -spec flag to the protocols to check: "all" means
// the paper's spectrum plus Dir1SW; anything else must be one alias.
func resolveSpecs(alias string) ([]proto.Spec, error) {
	if alias == "all" {
		return append(proto.Spectrum(), proto.Dir1SW()), nil
	}
	s, err := litmus.SpecByAlias(alias)
	if err != nil {
		return nil, err
	}
	return []proto.Spec{s}, nil
}

// resolveOverrides parses the -configure flag into per-block protocol
// overrides: element i applies to block i; an empty element keeps the
// machine default (encoded as a zero Spec, which Config.blockSpec skips).
func resolveOverrides(arg string) ([]proto.Spec, error) {
	if arg == "" {
		return nil, nil
	}
	var out []proto.Spec
	for _, alias := range strings.Split(arg, ",") {
		alias = strings.TrimSpace(alias)
		if alias == "" {
			out = append(out, proto.Spec{})
			continue
		}
		s, err := litmus.SpecByAlias(alias)
		if err != nil {
			return nil, fmt.Errorf("-configure: %v", err)
		}
		out = append(out, s)
	}
	return out, nil
}
