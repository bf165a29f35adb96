package main

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"strconv"
	"sync"

	"fraccascade/internal/engine"
	"fraccascade/internal/tree"
)

// The POST /query wire format is fixed: a request is a queryRequest and a
// response is exactly what encoding/json writes for the reference structs
// in wire_test.go. The hot path reads and writes it by hand, without
// reflection: parseQueriesFast takes the canonical request shape in one
// pass, and appendQueryResponse writes the response byte for byte as
// json.NewEncoder(w).Encode would. Any request outside the canonical shape
// goes to encoding/json, so accepted inputs and error text stay
// encoding/json's.

// wireQuery is the POST /query request item. Kind selects the fields read:
// "catalog" uses shard/key/leaf (the server resolves the root path to the
// leaf), "point" uses x/y, "spatial" uses x/y/z.
type wireQuery struct {
	Kind  string `json:"kind"`
	Shard int    `json:"shard"`
	Key   int64  `json:"key"`
	Leaf  int64  `json:"leaf"`
	X     int64  `json:"x"`
	Y     int64  `json:"y"`
	Z     int64  `json:"z"`
}

type queryRequest struct {
	Queries []wireQuery `json:"queries"`
}

// maxQueryBody bounds a POST /query body; larger bodies get 413. A
// 32-query request is under 3 KiB, so this admits batches of tens of
// thousands of queries.
const maxQueryBody = 8 << 20

// maxPooledScratch is the largest buffer a queryScratch may hold when it
// returns to the pool; one oversized request does not pin its memory.
const maxPooledScratch = 1 << 20

// queryScratch is one POST /query request's working memory, pooled so a
// warm request reuses the buffers of an earlier one.
type queryScratch struct {
	body    bytes.Buffer
	queries []wireQuery
	qs      []engine.Query
	paths   []tree.NodeID // the catalog queries' root paths, back to back
	reports []engine.BatchReport
	answers [][]engine.Answer
	out     []byte
}

var queryScratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

func getQueryScratch() *queryScratch {
	sc := queryScratchPool.Get().(*queryScratch)
	sc.body.Reset()
	return sc
}

// putQueryScratch returns sc to the pool, dropping its references to the
// request's answers and paths first.
func putQueryScratch(sc *queryScratch) {
	// Node ids are 4 bytes.
	if sc.body.Cap() > maxPooledScratch || cap(sc.out) > maxPooledScratch || 4*cap(sc.paths) > maxPooledScratch {
		return
	}
	clear(sc.qs)
	clear(sc.answers)
	sc.qs, sc.paths, sc.reports, sc.answers = sc.qs[:0], sc.paths[:0], sc.reports[:0], sc.answers[:0]
	queryScratchPool.Put(sc)
}

// decodeQueries reads a POST /query body into dst[:0]. The canonical shape
// takes the fast path; any other body is decoded by
// json.NewDecoder(…).Decode, whose verdict, result and error text are then
// the answer.
func decodeQueries(dst []wireQuery, body []byte) ([]wireQuery, error) {
	if qs, ok := parseQueriesFast(dst[:0], body); ok {
		return qs, nil
	}
	var req queryRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req.Queries, err
}

// parseQueriesFast parses the canonical request shape
// {"queries":[{…},…]}: the query objects hold only the seven wireQuery
// keys spelled exactly, integer literals without fraction or exponent
// that fit their field, and kind strings of bytes 0x20-0x7f without
// escapes; JSON whitespace may appear between any two tokens. Whatever
// follows the closing brace is ignored, as json.Decoder.Decode ignores it.
// On every such body the result equals encoding/json's; on any other body
// ok is false and nothing is claimed.
func parseQueriesFast(dst []wireQuery, body []byte) (qs []wireQuery, ok bool) {
	p := wireParser{b: body}
	if !p.lit("{") || !p.lit(`"queries"`) || !p.lit(":") || !p.lit("[") {
		return nil, false
	}
	if p.lit("]") {
		return dst, p.lit("}")
	}
	for {
		var q wireQuery
		if !p.query(&q) {
			return nil, false
		}
		dst = append(dst, q)
		if p.lit("]") {
			return dst, p.lit("}")
		}
		if !p.lit(",") {
			return nil, false
		}
	}
}

// wireParser is the cursor of parseQueriesFast.
type wireParser struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (p *wireParser) ws() {
	for p.i < len(p.b) && (p.b[p.i] == ' ' || p.b[p.i] == '\t' || p.b[p.i] == '\n' || p.b[p.i] == '\r') {
		p.i++
	}
}

// lit skips whitespace and consumes s if the input continues with it.
func (p *wireParser) lit(s string) bool {
	p.ws()
	if len(p.b)-p.i < len(s) || string(p.b[p.i:p.i+len(s)]) != s {
		return false
	}
	p.i += len(s)
	return true
}

// query parses one canonical query object into q; a repeated key
// overwrites, as in encoding/json.
func (p *wireParser) query(q *wireQuery) bool {
	if !p.lit("{") {
		return false
	}
	if p.lit("}") {
		return true
	}
	for {
		key, ok := p.str()
		if !ok || !p.lit(":") {
			return false
		}
		switch string(key) {
		case "kind":
			var kind []byte
			if kind, ok = p.str(); ok {
				q.Kind = internKind(kind)
			}
		case "shard":
			var n int64
			if n, ok = p.int(); ok && int64(int(n)) == n {
				q.Shard = int(n)
			} else {
				ok = false
			}
		case "key":
			q.Key, ok = p.int()
		case "leaf":
			q.Leaf, ok = p.int()
		case "x":
			q.X, ok = p.int()
		case "y":
			q.Y, ok = p.int()
		case "z":
			q.Z, ok = p.int()
		default:
			return false
		}
		if !ok {
			return false
		}
		if p.lit("}") {
			return true
		}
		if !p.lit(",") {
			return false
		}
	}
}

// str parses a string of bytes 0x20-0x7f other than '"' and '\\' and
// returns its contents.
func (p *wireParser) str() ([]byte, bool) {
	if !p.lit(`"`) {
		return nil, false
	}
	for start := p.i; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			return p.b[start : p.i-1], true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// int parses an integer literal that fits an int64: an optional minus and
// either 0 or a digit string without a leading zero. A fraction, exponent
// or further digit after it fails the caller's next lit.
func (p *wireParser) int() (int64, bool) {
	p.ws()
	neg := p.i < len(p.b) && p.b[p.i] == '-'
	if neg {
		p.i++
	}
	start := p.i
	var u uint64
	for p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9' {
		u = u*10 + uint64(p.b[p.i]-'0')
		p.i++
		if u == 0 || p.i-start > 19 {
			break // a leading 0 ends the literal; 20 digits overflow
		}
	}
	switch digits := p.i - start; {
	case digits == 0 || digits > 19:
		return 0, false
	case neg && u <= 1<<63:
		return -int64(u), true
	case !neg && u <= math.MaxInt64:
		return int64(u), true
	}
	return 0, false
}

// internKind returns the kind string without allocating for the three
// kinds coopserve serves.
func internKind(b []byte) string {
	switch string(b) {
	case "catalog":
		return "catalog"
	case "point":
		return "point"
	case "spatial":
		return "spatial"
	}
	return string(b)
}

// phaseKeySlots lists the engine.PhaseLabels slots in the order
// encoding/json writes a map's keys: sorted by label.
var phaseKeySlots = func() []int {
	slots := make([]int, len(engine.PhaseLabels))
	for i := range slots {
		slots[i] = i
	}
	sort.Slice(slots, func(a, b int) bool { return engine.PhaseLabels[slots[a]] < engine.PhaseLabels[slots[b]] })
	return slots
}()

// appendQueryResponse appends the POST /query response for the batches
// executed — reports[i] and answers[i] from one engine batch — exactly as
// json.NewEncoder(w).Encode writes the reference queryResponse, trailing
// newline included. Empty report and answer lists encode as null, as nil
// slices do.
func appendQueryResponse(dst []byte, reqID string, reports []engine.BatchReport, answers [][]engine.Answer) []byte {
	dst = append(dst, `{"request_id":`...)
	dst = appendJSONString(dst, reqID)
	dst = append(dst, `,"batches":`...)
	if len(reports) == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range reports {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendBatchReport(dst, &reports[i])
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"answers":`...)
	sep := byte('[')
	for _, batch := range answers {
		for i := range batch {
			dst = append(dst, sep)
			dst = appendAnswer(dst, &batch[i])
			sep = ','
		}
	}
	if sep == '[' {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, ']')
	}
	return append(dst, "}\n"...)
}

// appendBatchReport appends one batch report (the reference
// wireBatchReport).
func appendBatchReport(dst []byte, rep *engine.BatchReport) []byte {
	dst = append(dst, `{"b":`...)
	dst = strconv.AppendInt(dst, int64(rep.B), 10)
	dst = append(dst, `,"p_share":`...)
	dst = strconv.AppendInt(dst, int64(rep.PShare), 10)
	dst = append(dst, `,"steps":`...)
	dst = strconv.AppendInt(dst, int64(rep.Steps), 10)
	dst = append(dst, `,"cache_hits":`...)
	dst = strconv.AppendInt(dst, int64(rep.CacheHits), 10)
	dst = append(dst, `,"cache_misses":`...)
	dst = strconv.AppendInt(dst, int64(rep.CacheMisses), 10)
	dst = append(dst, `,"errors":`...)
	dst = strconv.AppendInt(dst, int64(rep.Errors), 10)
	dst = append(dst, `,"queries_per_step":`...)
	dst = appendJSONFloat(dst, rep.Throughput())
	return append(dst, '}')
}

// appendAnswer appends one answer (the reference wireAnswer): the omitempty
// fields are left out when zero, phase_steps holds the non-zero slots in
// key order, and a catalog answer's cache outcome reads hit, stale or
// miss.
func appendAnswer(dst []byte, a *engine.Answer) []byte {
	dst = append(dst, `{"kind":`...)
	dst = appendJSONString(dst, a.Query.Kind.String())
	dst = append(dst, `,"p":`...)
	dst = strconv.AppendInt(dst, int64(a.P), 10)
	dst = append(dst, `,"steps":`...)
	dst = strconv.AppendInt(dst, int64(a.Steps), 10)
	dst = append(dst, `,"rounds":`...)
	dst = strconv.AppendInt(dst, int64(a.Rounds), 10)
	if a.Query.Kind == engine.KindCatalog && a.Err == nil {
		switch {
		case a.CacheHit:
			dst = append(dst, `,"cache":"hit"`...)
		case a.CacheStale:
			dst = append(dst, `,"cache":"stale"`...)
		default:
			dst = append(dst, `,"cache":"miss"`...)
		}
	}
	sep := byte('{')
	for _, slot := range phaseKeySlots {
		if n := a.PhaseSteps[slot]; n > 0 {
			if sep == '{' {
				dst = append(dst, `,"phase_steps":`...)
			}
			dst = append(dst, sep)
			dst = appendJSONString(dst, engine.PhaseLabels[slot])
			dst = append(dst, ':')
			dst = strconv.AppendInt(dst, int64(n), 10)
			sep = ','
		}
	}
	if sep == ',' {
		dst = append(dst, '}')
	}
	if len(a.Results) > 0 {
		dst = append(dst, `,"results":[`...)
		for i, r := range a.Results {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"node":`...)
			dst = strconv.AppendInt(dst, int64(r.Node), 10)
			dst = append(dst, `,"key":`...)
			dst = strconv.AppendInt(dst, int64(r.Key), 10)
			dst = append(dst, `,"payload":`...)
			dst = strconv.AppendInt(dst, int64(r.Payload), 10)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if a.Region != 0 {
		dst = append(dst, `,"region":`...)
		dst = strconv.AppendInt(dst, int64(a.Region), 10)
	}
	if a.Cell != 0 {
		dst = append(dst, `,"cell":`...)
		dst = strconv.AppendInt(dst, int64(a.Cell), 10)
	}
	if a.Err != nil {
		if text := a.Err.Error(); text != "" {
			dst = append(dst, `,"err":`...)
			dst = appendJSONString(dst, text)
		}
	}
	return append(dst, '}')
}

// appendJSONString appends s as a JSON string. Printable ASCII other than
// the bytes encoding/json escapes ('"', '\\', and the HTML-unsafe '<',
// '>', '&') is copied as-is; any other string goes through json.Marshal,
// which escapes control bytes, invalid UTF-8 and U+2028/U+2029 exactly as
// the encoder does.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&':
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendJSONFloat appends f as encoding/json writes a float64: the
// shortest round-trip decimal, in exponent form outside [1e-6, 1e21) with
// a single-digit negative exponent unpadded. f must be finite (a batch's
// throughput always is), since encoding/json refuses NaN and infinities.
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}
