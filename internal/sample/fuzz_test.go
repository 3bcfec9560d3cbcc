package sample

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzCheckpointDecode drives the binary checkpoint decoder with
// arbitrary bytes.  Decoding must fail cleanly or yield a checkpoint
// that survives EncodeBinary -> DecodeBinary unchanged.  The seed
// corpus under testdata/fuzz holds valid encodings (empty delta,
// halted, a real mid-run delta), truncations, bad magic and the
// hostile delta count that once drove a 4 GiB allocation.
func FuzzCheckpointDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := DecodeBinary(bytes.NewReader(data))
		if err != nil {
			if cp != nil {
				t.Fatal("failed decode returned a checkpoint")
			}
			return
		}
		var buf bytes.Buffer
		if err := cp.EncodeBinary(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := DecodeBinary(&buf)
		if err != nil {
			t.Fatalf("re-decoding an encoded checkpoint: %v", err)
		}
		if !reflect.DeepEqual(again, cp) {
			t.Fatalf("round trip changed the checkpoint:\n%+v\n%+v", cp, again)
		}
	})
}
