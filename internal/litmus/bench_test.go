package litmus

import (
	"testing"

	"swex/internal/sim"
)

// BenchmarkParse decodes the canonical encodings of the corpus and of 64
// generated programs (seed 1, per-variable protocol overrides drawn from
// h1ack and dir1sw), the text a sweep job's program reference carries:
// one op is one program.
func BenchmarkParse(b *testing.B) {
	var encs []string
	for _, tc := range Corpus() {
		encs = append(encs, tc.Prog.String())
	}
	r := sim.NewRand(1)
	for range 64 {
		encs = append(encs, Generate(r, GenConfig{SpecAliases: []string{"h1ack", "dir1sw"}}).String())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(encs[i%len(encs)]); err != nil {
			b.Fatal(err)
		}
	}
}
