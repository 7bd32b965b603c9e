package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/npb"
	"repro/internal/report"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// The want values a query may ask for.
const (
	// WantLatency runs the cycle-accurate simulator and reports packet
	// latency (the default).
	WantLatency = "latency"
	// WantCLEAR additionally evaluates the paper's eq. 2 figure of merit
	// from the measured run.
	WantCLEAR = "clear"
	// WantEnergy additionally prices the run with the activity-based
	// energy model (measured fJ/bit, component energies).
	WantEnergy = "energy"
)

// Error codes. Every rejected request carries exactly one of these; codes
// are stable protocol surface, messages are free-form (and list the
// registered names where a registry lookup failed, mirroring the CLIs).
const (
	CodeBadJSON        = "bad_json"
	CodeUnknownField   = "unknown_field"
	CodeUnknownKind    = "unknown_kind"
	CodeUnknownPattern = "unknown_pattern"
	CodeUnknownKernel  = "unknown_kernel"
	CodeUnknownTech    = "unknown_tech"
	CodeBadLoad        = "bad_load"
	CodeBadWant        = "bad_want"
	CodeBadGeometry    = "bad_geometry"
	CodeBadRequest     = "bad_request"
	CodeQueueFull      = "queue_full"
	CodeEvalFailed     = "eval_failed"
	CodeCanceled       = "canceled"
	CodeDraining       = "draining"
)

// Request is one estimation query: a topology kind, a design point, a
// traffic source (synthetic pattern or built-in NPB kernel trace) and the
// figure wanted. The zero value of every optional field selects the
// documented default, so the minimal valid query is
// {"pattern":"uniform","load":0.05}.
type Request struct {
	// ID is an opaque client tag echoed verbatim in the response.
	ID string `json:"id,omitempty"`
	// Topology is the registered kind name (default "mesh").
	Topology string `json:"topology,omitempty"`
	// Width and Height give the router grid (default 8×8).
	Width  int `json:"width,omitempty"`
	Height int `json:"height,omitempty"`
	// Base is the mesh channel technology (default "Electronic").
	Base string `json:"base,omitempty"`
	// Express is the express channel technology (default: Base).
	Express string `json:"express,omitempty"`
	// Hops is the express hop length (0 = no express channels).
	Hops int `json:"hops,omitempty"`
	// Pattern names a registered synthetic pattern. Exactly one of
	// Pattern and Kernel must be set.
	Pattern string `json:"pattern,omitempty"`
	// Kernel names a built-in NPB trace (FT, CG, MG, LU and the EP, IS
	// extensions) replayed at the kernel's fixed volume; Load must be
	// omitted.
	Kernel string `json:"kernel,omitempty"`
	// Load is the offered peak per-node injection rate in flits/cycle,
	// required in (0, 1] for pattern queries.
	Load float64 `json:"load,omitempty"`
	// Want selects the figure: latency (default), clear or energy.
	Want string `json:"want,omitempty"`
}

// Error is a structured rejection: a stable code, the offending field
// when one is identifiable, and a human-readable message.
type Error struct {
	Code    string `json:"code"`
	Field   string `json:"field,omitempty"`
	Message string `json:"message"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Field != "" {
		return fmt.Sprintf("%s (%s): %s", e.Code, e.Field, e.Message)
	}
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

func errf(code, field, format string, args ...any) *Error {
	return &Error{Code: code, Field: field, Message: fmt.Sprintf(format, args...)}
}

// Result is the successful payload. Fields beyond the echoed query and
// the latency block are populated according to Want.
type Result struct {
	// Topology through Want echo the canonicalized query, so a response
	// is self-describing even without an ID.
	Topology string  `json:"topology"`
	Point    string  `json:"point"`
	Width    int     `json:"width"`
	Height   int     `json:"height"`
	Pattern  string  `json:"pattern,omitempty"`
	Kernel   string  `json:"kernel,omitempty"`
	Load     float64 `json:"load,omitempty"`
	Want     string  `json:"want"`
	// Saturated marks runs that failed to drain within the cycle cap;
	// latency then reflects the aborted horizon and pricing is omitted.
	Saturated bool `json:"saturated,omitempty"`
	// The measured latency block (all Want values).
	AvgLatencyClks float64 `json:"avg_latency_clks,omitempty"`
	P99LatencyClks float64 `json:"p99_latency_clks,omitempty"`
	Cycles         int64   `json:"cycles,omitempty"`
	Packets        int64   `json:"packets,omitempty"`
	// The measured energy block (want: energy).
	FJPerBit  float64 `json:"fj_per_bit,omitempty"`
	DynamicJ  float64 `json:"dynamic_j,omitempty"`
	StaticJ   float64 `json:"static_j,omitempty"`
	TotalJ    float64 `json:"total_j,omitempty"`
	AvgPowerW float64 `json:"avg_power_w,omitempty"`
	// The simulated CLEAR block (want: clear or energy).
	CLEAR          float64 `json:"clear,omitempty"`
	R              float64 `json:"r,omitempty"`
	AvgUtilization float64 `json:"avg_utilization,omitempty"`
}

// Response is one reply line: ok with a result, or not ok with an error.
type Response struct {
	ID     string  `json:"id,omitempty"`
	OK     bool    `json:"ok"`
	Result *Result `json:"result,omitempty"`
	Error  *Error  `json:"error,omitempty"`
}

// Encode renders the response as its canonical single JSON line (no
// trailing newline). The encoding is byte-stable: identical responses
// encode to identical bytes (see report.JSONLine).
func (r Response) Encode() []byte {
	line, err := report.JSONLine(r)
	if err != nil {
		// Response trees contain only marshalable fields; reaching here
		// is a programming error worth failing loudly over.
		panic(fmt.Sprintf("serve: unencodable response: %v", err))
	}
	return line
}

// errResponse builds the rejection reply for a request (zero ID allowed).
func errResponse(id string, e *Error) Response {
	return Response{ID: id, OK: false, Error: e}
}

// DecodeRequest parses one JSON-line request. Rejections are structured:
// malformed JSON is CodeBadJSON, a field of the wrong type is CodeBadJSON
// naming the field, an unrecognized field is CodeUnknownField naming it.
// The partially decoded request is returned even on error so callers can
// echo an ID when one was readable.
func DecodeRequest(line []byte) (Request, *Error) {
	var req Request
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var typeErr *json.UnmarshalTypeError
		if errors.As(err, &typeErr) {
			return req, errf(CodeBadJSON, typeErr.Field,
				"field %q wants %s, got JSON %s", typeErr.Field, typeErr.Type, typeErr.Value)
		}
		if name, ok := unknownFieldName(err); ok {
			field := name
			if field == "" {
				// JSON allows "" as a key; name it by its quoted spelling
				// so the rejection still points somewhere.
				field = `""`
			}
			return req, errf(CodeUnknownField, field,
				"unknown field %q (known: id, topology, width, height, base, express, hops, pattern, kernel, load, want)", name)
		}
		return req, errf(CodeBadJSON, "", "malformed JSON request: %v", err)
	}
	// One object per line: trailing tokens are a framing error, not a
	// second request.
	if dec.More() {
		return req, errf(CodeBadJSON, "", "trailing data after JSON request")
	}
	return req, nil
}

// unknownFieldName extracts the field from encoding/json's (unexported)
// unknown-field error.
func unknownFieldName(err error) (string, bool) {
	const prefix = `json: unknown field "`
	s := err.Error()
	if !strings.HasPrefix(s, prefix) {
		return "", false
	}
	return strings.TrimSuffix(strings.TrimPrefix(s, prefix), `"`), true
}

// Canonical validates the request and folds every field to its canonical
// spelling (registry-cased names, defaults applied), so equivalent
// queries — {"pattern":"uniform"} vs {"topology":"MESH","base":"E",...} —
// share one cache identity. maxNodes bounds Width×Height.
func (r Request) Canonical(maxNodes int) (Request, *Error) {
	c := r
	switch c.Want {
	case "":
		c.Want = WantLatency
	case WantLatency, WantCLEAR, WantEnergy:
	default:
		return c, errf(CodeBadWant, "want",
			"unknown want %q (known: %s, %s, %s)", c.Want, WantLatency, WantCLEAR, WantEnergy)
	}

	spec, err := topology.LookupKind(c.Topology)
	if err != nil {
		return c, errf(CodeUnknownKind, "topology", "%v", err)
	}
	c.Topology = string(spec.Name)

	if c.Width == 0 && c.Height == 0 {
		c.Width, c.Height = DefaultWidth, DefaultHeight
	}
	if c.Width < 2 || c.Height < 1 {
		field := "width"
		if c.Width >= 2 {
			field = "height"
		}
		return c, errf(CodeBadGeometry, field, "grid %dx%d too small", c.Width, c.Height)
	}
	if c.Width > math.MaxInt/c.Height {
		return c, errf(CodeBadGeometry, "width",
			"grid %dx%d overflows the node count", c.Width, c.Height)
	}
	if maxNodes > 0 && c.Width > maxNodes/c.Height {
		return c, errf(CodeBadGeometry, "width",
			"grid %dx%d exceeds the server's %d-node bound", c.Width, c.Height, maxNodes)
	}
	if c.Hops < 0 {
		return c, errf(CodeBadGeometry, "hops", "negative express hops %d", c.Hops)
	}

	if c.Base == "" {
		c.Base = tech.Electronic.String()
	}
	base, err := tech.ParseTechnology(c.Base)
	if err != nil {
		return c, errf(CodeUnknownTech, "base", "%v (known: %s)", err, techNames())
	}
	c.Base = base.String()
	if c.Express == "" {
		c.Express = c.Base
	}
	express, err := tech.ParseTechnology(c.Express)
	if err != nil {
		return c, errf(CodeUnknownTech, "express", "%v (known: %s)", err, techNames())
	}
	c.Express = express.String()
	if c.Hops == 0 {
		// Without express channels the express technology is unused;
		// fold it so all plain variants share one cache identity.
		c.Express = c.Base
	}

	switch {
	case c.Pattern == "" && c.Kernel == "":
		return c, errf(CodeBadRequest, "pattern",
			"one of pattern (known: %s) or kernel (known: %s) is required",
			strings.Join(traffic.Names(), ", "), kernelNames())
	case c.Pattern != "" && c.Kernel != "":
		return c, errf(CodeBadRequest, "kernel", "pattern and kernel are mutually exclusive")
	case c.Pattern != "":
		p, err := traffic.Lookup(c.Pattern)
		if err != nil {
			return c, errf(CodeUnknownPattern, "pattern", "%v", err)
		}
		c.Pattern = p.Name()
		if math.IsNaN(c.Load) || c.Load <= 0 || c.Load > 1 {
			return c, errf(CodeBadLoad, "load",
				"pattern queries need load in (0, 1] flits/cycle, got %v", c.Load)
		}
	default:
		k, err := npb.ParseKernel(c.Kernel)
		if err != nil {
			return c, errf(CodeUnknownKernel, "kernel", "%v (known: %s)", err, kernelNames())
		}
		c.Kernel = k.String()
		if c.Load != 0 {
			return c, errf(CodeBadLoad, "load",
				"kernel queries replay the trace's fixed volume; omit load (got %v)", c.Load)
		}
	}
	return c, nil
}

// kernelNames lists the parseable NPB kernels (paper set plus
// extensions) for error messages.
func kernelNames() string {
	all := append(append([]npb.Kernel{}, npb.Kernels...), npb.ExtensionKernels...)
	names := make([]string, len(all))
	for i, k := range all {
		names[i] = k.String()
	}
	return strings.Join(names, ", ")
}

// techNames lists the parseable technologies for error messages.
func techNames() string {
	names := make([]string, len(tech.Technologies))
	for i, t := range tech.Technologies {
		names[i] = t.String()
	}
	return strings.Join(names, ", ")
}

// workloadKey names what a canonicalized request simulates whatever its
// technologies: the key without want, base and express. Queries of one
// workload share a simulation when their fabrics time alike.
func (r Request) workloadKey() string {
	return fmt.Sprintf("%s|%dx%d|%d|%s|%s|%g",
		r.Topology, r.Width, r.Height, r.Hops, r.Pattern, r.Kernel, r.Load)
}

// key is the cache identity of a canonicalized request: every field but
// the client's opaque ID.
func (r Request) key() string {
	return fmt.Sprintf("%s|%dx%d|%s|%s|%d|%s|%s|%g|%s",
		r.Topology, r.Width, r.Height, r.Base, r.Express, r.Hops,
		r.Pattern, r.Kernel, r.Load, r.Want)
}
