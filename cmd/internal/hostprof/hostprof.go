// Package hostprof gives the commands their -cpuprofile and -memprofile
// flags. The profiles measure the host process, not the simulation, so
// they go to files only and change nothing a command prints.
package hostprof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the profile file names; an empty name takes no profile.
type Flags struct {
	CPU, Mem string
}

// Register defines -cpuprofile and -memprofile on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := new(Flags)
	fs.StringVar(&f.CPU, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&f.Mem, "memprofile", "", "write a heap profile at the end of the run to this file")
	return f
}

// Start creates the named files and starts the CPU profile. A file that
// cannot be created is an error naming its flag, and then nothing is
// started. The returned stop ends the CPU profile and writes the heap
// profile, as of a collection at that point; it reports its own failures
// on stderr, prefixed with prog, because they do not change what the run
// computed.
func (f *Flags) Start(prog string) (stop func(), err error) {
	var cpu, heap *os.File
	if f.CPU != "" {
		if cpu, err = os.Create(f.CPU); err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	if f.Mem != "" {
		if heap, err = os.Create(f.Mem); err != nil {
			closeFile(prog, "-cpuprofile", cpu)
			return nil, fmt.Errorf("-memprofile: %w", err)
		}
	}
	if cpu != nil {
		if err := pprof.StartCPUProfile(cpu); err != nil {
			closeFile(prog, "-cpuprofile", cpu)
			closeFile(prog, "-memprofile", heap)
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			closeFile(prog, "-cpuprofile", cpu)
		}
		if heap != nil {
			runtime.GC()
			if err := pprof.WriteHeapProfile(heap); err != nil {
				fmt.Fprintf(os.Stderr, "%s: -memprofile: %v\n", prog, err)
			}
			closeFile(prog, "-memprofile", heap)
		}
	}, nil
}

// closeFile closes f, if any, reporting a failure on stderr.
func closeFile(prog, flag string, f *os.File) {
	if f == nil {
		return
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %s: %v\n", prog, flag, err)
	}
}
