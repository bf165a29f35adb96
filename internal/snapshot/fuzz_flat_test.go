package snapshot

import (
	"testing"

	"fraccascade/internal/flat"
)

// FuzzFlatMmap feeds arbitrary bytes to the sidecar reader that backs the
// mmap restore path (OpenFlat decodes the mapped bytes with exactly this
// code). The contract under fuzzing is strict: DecodeFlat either succeeds
// or returns a typed corruption error — never a panic, never an untyped
// error, never an allocation sized from a hostile length field — and
// every blob that decodes is safe to hand to the flat store opener, whose
// own CRC/bounds validation is the second gate before anything serves
// queries. A failure at either gate is what makes the server fall back to
// refreezing from the snapshot proper.
func FuzzFlatMmap(f *testing.F) {
	_, blobs := frozenBlobs(f, 76)
	valid := encodeFlat(f, 11, blobs)
	f.Add(valid)
	f.Add(encodeFlat(f, 0, nil))
	f.Add([]byte{})
	f.Add([]byte(flatMagic))
	f.Add(valid[:flatHeaderFixed+4])
	f.Add(valid[:flatHeaderFixed+flatTableEntry*len(blobs)+4]) // whole header, no blobs
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-1])
	flipHeader := append([]byte{}, valid...)
	flipHeader[flatHeaderFixed+3] ^= 0x20 // table row
	f.Add(flipHeader)
	flipBlob := append([]byte{}, valid...)
	flipBlob[len(flipBlob)-64] ^= 0x20 // blob payload
	f.Add(flipBlob)
	f.Fuzz(func(t *testing.T, data []byte) {
		gen, got, err := DecodeFlat(data)
		if err != nil {
			if !IsCorrupt(err) {
				t.Fatalf("untyped sidecar decode error: %v", err)
			}
			return
		}
		_ = gen
		for i, b := range got {
			// Both open modes must survive arbitrary payloads; a zero-copy
			// open is the exact restore path over a mapping.
			st, _, err := flat.OpenStructure(b.Data)
			if err != nil {
				continue // refreeze fallback
			}
			if st.NumNodes() < 1 {
				t.Fatalf("blob %d: decoded structure has %d nodes", i, st.NumNodes())
			}
		}
	})
}
