package sweep

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzOpenCache feeds arbitrary bytes to the object and the failure file
// of key "k1". Nothing may panic; Get serves k1 only from an object that
// decodes, names k1 and matches its embedded digest, and serves what that
// object holds; Status works and counts k1 done exactly when Get serves
// it, and failed exactly when the failure file decodes, names k1, and k1
// is not done.
func FuzzOpenCache(f *testing.F) {
	encode := func(key string, res Result, digest bool) []byte {
		obj := object{Key: key, Result: res}
		if digest {
			obj.Digest, _ = obj.payloadDigest()
		}
		data, _ := json.MarshalIndent(obj, "", " ")
		return append(data, '\n')
	}
	good := encode("k1", Result{Time: 4000, ReadMean: 193, Obs: [][]uint64{{1, 2}, {}}}, true)
	failure := []byte(`{"Key":"k1","Err":"boom"}`)
	for _, seed := range []struct{ object, failure []byte }{
		{nil, nil},
		{good, nil},
		{good, failure},
		{nil, failure},
		{bytes.Replace(good, []byte("193"), []byte("999"), 1), nil},
		{good[:len(good)/2], failure},
		{encode("k1", Result{Time: 4000}, false), nil},
		{encode("k2", Result{Time: 4000}, true), []byte(`{"Key":"k2","Err":"foreign"}`)},
		{[]byte("garbage not json\n"), []byte("garbage")},
		{bytes.Replace(good, []byte(" "), nil, -1), []byte(`{"Key":"k1","Err":5}`)},
	} {
		f.Add(seed.object, seed.failure)
	}
	f.Fuzz(func(t *testing.T, k1Object, k1Failure []byte) {
		c, err := OpenCache(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		hash := HashKey("k1")
		for _, file := range []struct {
			tree string
			data []byte
		}{{"objects", k1Object}, {"failed", k1Failure}} {
			path := c.path(file.tree, hash)
			if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, file.data, 0o666); err != nil {
				t.Fatal(err)
			}
		}
		res, served := c.Get("k1")
		if served {
			var obj object
			if err := json.Unmarshal(k1Object, &obj); err != nil || obj.Key != "k1" {
				t.Fatalf("served k1 from bytes that do not decode to k1's object (%v)", err)
			}
			if d, err := obj.payloadDigest(); err != nil || d != obj.Digest {
				t.Fatalf("served k1 from an object whose digest %q does not match its payload's %q", obj.Digest, d)
			}
			if !reflect.DeepEqual(res, obj.Result) {
				t.Fatalf("served %+v, the object holds %+v", res, obj.Result)
			}
		}
		st, err := c.Status()
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		if (st.Done == 1) != served || st.Done > 1 {
			t.Fatalf("status counts %d done, Get serves k1: %v", st.Done, served)
		}
		var fail Failure
		wantFailed := !served && json.Unmarshal(k1Failure, &fail) == nil && fail.Key == "k1"
		if (st.Failed == 1) != wantFailed || st.Failed != len(st.Failures) || st.Failed > 1 {
			t.Fatalf("status %+v, want k1 failed: %v", st, wantFailed)
		}
	})
}
