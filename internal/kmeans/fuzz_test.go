package kmeans

import "testing"

// FuzzDecodeFlatAccumWire: the decoder must reject arbitrary input with an
// error — never a panic; inputs that do decode must survive a
// re-encode/re-decode cycle.
func FuzzDecodeFlatAccumWire(f *testing.F) {
	w := flatTestAccum()
	good := w.EncodeFlat(nil)
	f.Add(good)
	f.Add(dupIndexAccum().EncodeFlat(nil))
	f.Add(withVersion(good, 1)) // a retired layout's version byte
	f.Add(good[:len(good)-3])   // truncated mid-value-block
	f.Add(good[:7])             // truncated mid-header
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := DecodeFlatAccumWire(data)
		if err != nil {
			return
		}
		re, err := DecodeFlatAccumWire(dec.EncodeFlat(nil))
		if err != nil {
			t.Fatalf("re-encoding an accepted payload failed to decode: %v", err)
		}
		if len(re.Idx) != len(dec.Idx) {
			t.Fatalf("re-decode changed cluster count: %d != %d", len(re.Idx), len(dec.Idx))
		}
	})
}

// withVersion returns a copy of a flat buffer with its version byte (the
// byte after the magic) replaced.
func withVersion(b []byte, v byte) []byte {
	b = append([]byte(nil), b...)
	b[4] = v
	return b
}
