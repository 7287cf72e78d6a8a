package dataset

import (
	"bytes"
	"testing"
)

// FuzzLoadCSV drives the CSV loader with arbitrary bytes. The loader sits
// on the trust boundary of cmd/erresolve (it parses user-supplied files),
// so it must never panic: every malformed input maps to an error. Inputs it
// accepts must produce a dataset that passes Validate and survives a
// WriteCSV -> LoadCSVCheck round trip with the same record count.
func FuzzLoadCSV(f *testing.F) {
	f.Add([]byte("id,entity,source,text\n0,e1,0,hello world\n1,e1,1,hello earth\n"))
	f.Add([]byte("0,,0,no header row\n"))
	f.Add([]byte("id,entity,source,text\n0,e1,0,extra,columns,append\n"))
	f.Add([]byte("id,entity,source,text\n0,e1,notanumber,text\n"))
	f.Add([]byte("id,entity,source\n0,e1,0\n"))
	f.Add([]byte("\"unterminated quote\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := LoadCSVCheck(bytes.NewReader(data), "fuzz", nil)
		if err != nil {
			return
		}
		if verr := d.Validate(); verr != nil {
			t.Fatalf("LoadCSVCheck accepted a dataset that fails Validate: %v", verr)
		}
		var buf bytes.Buffer
		if werr := WriteCSV(&buf, d); werr != nil {
			t.Fatalf("WriteCSV on a loaded dataset: %v", werr)
		}
		back, err := LoadCSVCheck(&buf, "fuzz", nil)
		if err != nil {
			t.Fatalf("round trip rejected WriteCSV output: %v", err)
		}
		if len(back.Records) != len(d.Records) {
			t.Fatalf("round trip changed record count: %d -> %d", len(d.Records), len(back.Records))
		}
	})
}
