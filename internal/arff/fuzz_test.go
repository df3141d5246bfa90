package arff

import (
	"bytes"
	"testing"

	"hpa/internal/sparse"
)

// FuzzReader: arbitrary input through NewReader and a full read must end
// in an error or a clean end of input — never a panic — and every row the
// reader accepts must be a valid sparse vector within the header's
// attribute count.
func FuzzReader(f *testing.F) {
	head := "@RELATION r\n@ATTRIBUTE a NUMERIC\n@ATTRIBUTE b NUMERIC\n@DATA\n"
	for _, seed := range []string{
		"@RELATION r\n@ATTRIBUTE a NUMERIC\n@ATTRIBUTE b NUMERIC\n@ATTRIBUTE c NUMERIC\n@DATA\n1.5,0,2\n0,0,0\n",
		"% comment\n\n@RELATION r\n% another\n@ATTRIBUTE a NUMERIC\n@DATA\n% data comment\n\n{0 5}\n",
		head + "{0 0,1 3}\n",
		head + "{}\n",
		"@RELATION 'my relation'\n@ATTRIBUTE 'with space' REAL\n@ATTRIBUTE \"a,b\" NUMERIC\n@DATA\n{1 2}\n",
		"@RELATION r\n@ATTRIBUTE a NUMERIC\n",
		"@RELATION r\n@DATA\n",
		"@RELATION r\nhello world\n@DATA\n",
		"@RELATION r\n@ATTRIBUTE a STRING\n@DATA\n",
		"@RELATION r\n@ATTRIBUTE aonly\n@DATA\n",
		"@RELATION r\n@ATTRIBUTE 'a NUMERIC\n@DATA\n",
		head + "{0 1",
		head + "{x 1}\n",
		head + "{5 1}\n",
		head + "{1 1,0 2}\n",
		head + "{0}\n",
		head + "{0 abc}\n",
		head + "1,2,3\n",
		head + "1\n",
		head + "1,x\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	var buf bytes.Buffer
	w := NewWriter(&buf, sampleHeader(50))
	for _, v := range []sparse.Vector{
		{Idx: []uint32{0, 3, 49}, Val: []float64{1.5, -0.25, 3.25e-7}},
		{},
		{Idx: []uint32{7}, Val: []float64{42}},
	} {
		if err := w.WriteRow(&v); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		attrs := len(r.Header().Attributes)
		var v sparse.Vector
		for {
			ok, err := r.ReadRow(&v)
			if err != nil || !ok {
				return
			}
			if err := v.Validate(); err != nil {
				t.Fatalf("accepted an invalid row: %v", err)
			}
			if d := v.Dim(); d > attrs {
				t.Fatalf("accepted a row of dimension %d under %d attributes", d, attrs)
			}
		}
	})
}
