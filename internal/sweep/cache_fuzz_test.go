package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzOpenCache feeds arbitrary bytes to the manifest replay and to the
// object of key "k1". Opening must either fail with an error or yield a
// cache whose Status, Get and Compact work without panicking, that serves
// k1 only from an object whose bytes match the digest journaled for it,
// and whose compacted journal reopens to the same state.
func FuzzOpenCache(f *testing.F) {
	record := func(key, status string) string {
		return fmt.Sprintf(`{"h":%q,"k":%q,"s":%q}`+"\n", HashKey(key), key, status)
	}
	obj := []byte(`{"Key":"k1","Result":{"Time":4000,"ReadMean":193}}` + "\n")
	done := fmt.Sprintf(`{"h":%q,"k":"k1","s":"done","d":%q}`+"\n", HashKey("k1"), digest(obj))
	for _, seed := range []struct{ manifest, object string }{
		{"", ""},
		{record("k1", "done") + record("k2", "done"), string(obj)},
		{record("k1", "done") + `{"h":"deadbeef","k":"half-wri`, ""},
		{"garbage not json\n" + record("k1", "done"), string(obj)},
		{`{"h":"x","k":"not-a-job","s":"done"}` + "\n" + record("k1", "done"), ""},
		{record("k3", "failed") + record("k3", "done") + record("k4", "failed"), ""},
		{done, string(obj)},
		{done, string(bytes.Replace(obj, []byte("193"), []byte("999"), 1))},
		{done, string(obj[:len(obj)/2])},
		{record("k1", "failed") + done, string(obj)},
	} {
		f.Add([]byte(seed.manifest), []byte(seed.object))
	}
	f.Fuzz(func(t *testing.T, manifest, k1Object []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "manifest.jsonl"), manifest, 0o666); err != nil {
			t.Fatal(err)
		}
		path := (&Cache{dir: dir}).objectPath(HashKey("k1"))
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, k1Object, 0o666); err != nil {
			t.Fatal(err)
		}
		c, err := OpenCache(dir)
		if err != nil {
			return
		}
		st := c.Status()
		for _, rec := range c.done {
			c.Get(rec.Key)
		}
		for _, failure := range st.Failures {
			c.Get(failure.Key)
		}
		if res, ok := c.Get("k1"); ok {
			if rec := c.done[HashKey("k1")]; digest(k1Object) != rec.Digest {
				t.Fatalf("served k1 from an object that does not match its journaled digest %q", rec.Digest)
			}
			var want object
			if err := json.Unmarshal(k1Object, &want); err != nil || !reflect.DeepEqual(res, want.Result) {
				t.Fatalf("served %+v, the object holds %+v (%v)", res, want.Result, err)
			}
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
