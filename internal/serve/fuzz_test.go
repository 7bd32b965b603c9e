package serve

import (
	"strings"
	"testing"
)

// FuzzRequestDecode drives arbitrary bytes through the JSON-lines decoder
// and the canonicalizer: neither may panic, every rejection must be a
// structured error with a stable code (naming the offending field for the
// field-level classes), every accepted grid must fit the node bound
// without its Width×Height wrapping around, and canonicalization must be
// idempotent — the property the cache key depends on.
func FuzzRequestDecode(f *testing.F) {
	seeds := []string{
		`{"pattern":"uniform","load":0.05}`,
		`{"id":"q1","topology":"torus","width":4,"height":4,"pattern":"tornado","load":0.1,"want":"clear"}`,
		`{"kernel":"LU","width":4,"height":4}`,
		`{"express":"HyPPI","hops":3,"pattern":"neighbor","load":0.2,"want":"energy"}`,
		`{"pattern":"uniform","load":`,
		`{"pattern":"uniform","load":0.1} trailing`,
		`{"load":"high"}`,
		`{"pattren":"uniform"}`,
		`{"topology":"ring","pattern":"uniform","load":0.1}`,
		`{"pattern":"zipf","load":0.1}`,
		`{"kernel":"DT"}`,
		`{"base":"Optical","pattern":"uniform","load":0.1}`,
		`{"pattern":"uniform","load":-1}`,
		`{"pattern":"uniform","load":1e308}`,
		`{"want":"area","pattern":"uniform","load":0.1}`,
		`{"width":-4,"height":1e4,"pattern":"uniform","load":0.1}`,
		`{"hops":-9,"pattern":"uniform","load":0.1}`,
		`{"pattern":"uniform","kernel":"LU","load":0.1}`,
		`{}`,
		`null`,
		`[1,2,3]`,
		`"pattern"`,
		``,
		"\x00\xff{",
		`{"width":6148914691236517206,"height":3,"pattern":"uniform","load":0.1}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	fieldCodes := map[string]bool{
		CodeUnknownField:   true,
		CodeUnknownKind:    true,
		CodeUnknownPattern: true,
		CodeUnknownKernel:  true,
		CodeUnknownTech:    true,
		CodeBadLoad:        true,
		CodeBadWant:        true,
		CodeBadGeometry:    true,
		CodeBadRequest:     true,
	}
	f.Fuzz(func(t *testing.T, line string) {
		req, errObj := DecodeRequest([]byte(line))
		if errObj != nil {
			if errObj.Code != CodeBadJSON && errObj.Code != CodeUnknownField {
				t.Fatalf("decode rejection with non-decode code %q: %v", errObj.Code, errObj)
			}
			if errObj.Message == "" {
				t.Fatalf("decode rejection without message: %+v", errObj)
			}
			if errObj.Code == CodeUnknownField && errObj.Field == "" {
				t.Fatalf("unknown_field rejection without field name: %+v", errObj)
			}
			// The rejection must still encode to a valid response line.
			if enc := errResponse(req.ID, errObj).Encode(); strings.Contains(string(enc), "\n") {
				t.Fatalf("error response spans lines: %q", enc)
			}
			return
		}
		canon, cErr := req.Canonical(DefaultMaxNodes)
		if cErr != nil {
			if !fieldCodes[cErr.Code] {
				t.Fatalf("validation rejection with unexpected code %q: %v", cErr.Code, cErr)
			}
			if cErr.Field == "" || cErr.Message == "" {
				t.Fatalf("validation rejection must name the bad field: %+v", cErr)
			}
			return
		}
		// Accepted grids fit the node bound without wrapping around.
		if canon.Height < 1 || canon.Width > DefaultMaxNodes/canon.Height {
			t.Fatalf("accepted grid %dx%d exceeds the %d-node bound", canon.Width, canon.Height, DefaultMaxNodes)
		}
		// Accepted requests canonicalize idempotently to a stable key.
		again, cErr := canon.Canonical(DefaultMaxNodes)
		if cErr != nil {
			t.Fatalf("canonical form re-rejected: %v", cErr)
		}
		if again.key() != canon.key() {
			t.Fatalf("canonicalization not idempotent:\n %s\n %s", canon.key(), again.key())
		}
	})
}
