package main

import (
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"sort"

	"swex/internal/sweep"
)

// The correctness gate. Every pass compares its simulated results with the
// fingerprints committed in fingerprints.json. A simulator-only change must
// reproduce them exactly; a change that alters the modelled machine must
// re-record them (run.sh --record) and say why.

//go:embed fingerprints.json
var fingerprintJSON []byte

type machineFingerprint struct {
	Cycles, Events, Messages, Traps, BusyRetries uint64
}

type mcFingerprint struct {
	States, Transitions, Quiescent, Slept uint64
}

type campaignFingerprint struct {
	Runs   int
	Digest string
}

// fingerprintSet is the schema of fingerprints.json.
type fingerprintSet struct {
	// Machines holds the tsp256 and worker64 results by workload name.
	Machines map[string]machineFingerprint
	MC       mcFingerprint
	// Corpus holds one result digest per corpus run, keyed test@alias.
	Corpus map[string]string
	// Campaigns holds whole-campaign digests for recorded seeds, keyed
	// seed/programs. Other seeds are held to the corpus digests and the
	// SC oracle only.
	Campaigns map[string]campaignFingerprint
}

var fingerprints fingerprintSet

func loadFingerprints() error {
	if err := json.Unmarshal(fingerprintJSON, &fingerprints); err != nil {
		return fmt.Errorf("fingerprints.json: %w", err)
	}
	return nil
}

func campaignKey(seed uint64, count int) string { return fmt.Sprintf("%d/%d", seed, count) }

// digest accumulates an FNV-64a hash of unsigned values.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) put(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		d.h.Write(b[:])
	}
}

func (d digest) add(s string) { d.h.Write([]byte(s)) }

func (d digest) hex() string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], d.h.Sum64())
	return hex.EncodeToString(b[:])
}

// resultDigest fingerprints one litmus run: its simulated counts and every
// observed value.
func resultDigest(r sweep.Result) string {
	d := newDigest()
	d.put(uint64(r.Time), r.Messages, r.Traps, r.BusyRetries, uint64(r.HandlerCycles), uint64(len(r.Obs)))
	for _, slot := range r.Obs {
		d.put(uint64(len(slot)))
		d.put(slot...)
	}
	return d.hex()
}

// record runs every workload once and writes a fresh fingerprint set to
// stdout, with whole-campaign digests for the given seeds.
func record(seeds []uint64) error {
	set := fingerprintSet{
		Machines:  map[string]machineFingerprint{},
		Corpus:    map[string]string{},
		Campaigns: map[string]campaignFingerprint{},
	}
	for _, name := range []string{"tsp256-fullmap", "worker64-h0"} {
		w, err := workloadByName(name)
		if err != nil {
			return err
		}
		t, err := runOnce(w, 0)
		if err != nil {
			return err
		}
		set.Machines[name] = machineFingerprint{t.cycles, t.events, t.messages, t.traps, t.busyRetries}
	}
	mcw, err := workloadByName("mc-2n2b-h5")
	if err != nil {
		return err
	}
	t, err := runOnce(mcw, 0)
	if err != nil {
		return err
	}
	set.MC = mcFingerprint{t.states, t.transitions, t.quiescent, t.slept}

	for _, seed := range seeds {
		runs, err := campaignJobs(seed, campaignPrograms, 0)
		if err != nil {
			return err
		}
		whole := newDigest()
		for i := range runs {
			r := &runs[i]
			if r.res, r.err = sweep.Execute(r.job, 0); r.err != nil {
				return fmt.Errorf("%s: %w", r.job, r.err)
			}
			d := resultDigest(r.res)
			whole.add(d)
			if r.name != "" {
				set.Corpus[r.name] = d
			}
		}
		set.Campaigns[campaignKey(seed, campaignPrograms)] = campaignFingerprint{len(runs), whole.hex()}
	}
	out, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(append(out, '\n'))
	return err
}

// sortedKeys returns m's keys in order, for stable reports.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
