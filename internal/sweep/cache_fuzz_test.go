package sweep

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzOpenCache feeds arbitrary bytes to the manifest replay. Opening must
// either fail with an error or yield a cache whose Status, Get and Compact
// work without panicking, and whose compacted journal reopens to the same
// state.
func FuzzOpenCache(f *testing.F) {
	record := func(key, status string) string {
		return fmt.Sprintf(`{"h":%q,"k":%q,"s":%q}`+"\n", HashKey(key), key, status)
	}
	for _, seed := range []string{
		"",
		record("k1", "done") + record("k2", "done"),
		record("k1", "done") + `{"h":"deadbeef","k":"half-wri`,
		"garbage not json\n" + record("k1", "done"),
		`{"h":"x","k":"not-a-job","s":"done"}` + "\n" + record("k1", "done"),
		record("k3", "failed") + record("k3", "done") + record("k4", "failed"),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, manifest []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "manifest.jsonl"), manifest, 0o666); err != nil {
			t.Fatal(err)
		}
		c, err := OpenCache(dir)
		if err != nil {
			return
		}
		st := c.Status()
		for _, key := range c.done {
			c.Get(key)
		}
		for _, failure := range st.Failures {
			c.Get(failure.Key)
		}
		if _, err := c.Compact(); err != nil {
			t.Fatalf("compact: %v", err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		c2, err := OpenCache(dir)
		if err != nil {
			t.Fatalf("compacted journal does not reopen: %v", err)
		}
		defer c2.Close()
		if got := c2.Status(); !reflect.DeepEqual(got, st) {
			t.Fatalf("status after compact = %+v, want %+v", got, st)
		}
	})
}
