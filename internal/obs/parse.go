package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed metric sample.
type Sample struct {
	// Name is the sample's full name, including any _bucket/_sum/_count
	// suffix.
	Name   string
	Labels map[string]string
	Value  float64
	// Exemplar holds the sample's OpenMetrics exemplar clause, when
	// present (histogram _bucket samples only — the parser rejects
	// exemplars anywhere else).
	Exemplar *SampleExemplar
}

// SampleExemplar is one parsed OpenMetrics exemplar:
// "# {trace_id="..."} value [timestamp]" after a bucket sample.
type SampleExemplar struct {
	Labels map[string]string
	Value  float64
	// Ts is the exemplar timestamp in unix seconds; HasTs reports
	// whether one was present.
	Ts    float64
	HasTs bool
}

// TraceID returns the exemplar's trace_id label ("" when absent).
func (e *SampleExemplar) TraceID() string {
	if e == nil {
		return ""
	}
	return e.Labels["trace_id"]
}

// Family is one parsed metric family: the TYPE/HELP header plus every
// sample that belongs to it (for histograms, the _bucket/_sum/_count
// series).
type Family struct {
	Name, Help, Type string
	Samples          []Sample
}

// Metrics is a parsed exposition, keyed by family name.
type Metrics map[string]*Family

// ParseProm parses Prometheus text exposition format (version 0.0.4) —
// the round-trip partner of PromWriter, strict enough to catch a
// malformed exposition: every sample must belong to a family announced
// by a TYPE line, label syntax is validated, no series (sample name
// plus label set) appears twice, and histogram bucket counts must be
// monotonically non-decreasing and consistent with _count. It is for
// bytes that cross a process boundary; an in-process reader of a
// registry takes its samples from NewMetricsWriter instead.
func ParseProm(r io.Reader) (Metrics, error) {
	m := make(Metrics)
	seen := make(map[string]bool)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := m.parseHeader(line); err != nil {
				return nil, fmt.Errorf("obs: line %d: %w", lineNo, err)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", lineNo, err)
		}
		fam := m.familyFor(s.Name)
		if fam == nil {
			return nil, fmt.Errorf("obs: line %d: sample %q has no TYPE header", lineNo, s.Name)
		}
		if s.Exemplar != nil && (fam.Type != "histogram" || !strings.HasSuffix(s.Name, "_bucket")) {
			return nil, fmt.Errorf("obs: line %d: exemplar on %q (%s family %s): exemplars are histogram _bucket only",
				lineNo, s.Name, fam.Type, fam.Name)
		}
		key := s.Name + "{" + labelKey(s.Labels, "") + "}"
		if seen[key] {
			return nil, fmt.Errorf("obs: line %d: repeated series %s", lineNo, key)
		}
		seen[key] = true
		fam.Samples = append(fam.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, fam := range m {
		if fam.Type == "histogram" {
			if err := fam.checkHistogram(); err != nil {
				return nil, fmt.Errorf("obs: family %s: %w", fam.Name, err)
			}
		}
	}
	return m, nil
}

// parseHeader consumes a "# HELP name text" or "# TYPE name kind" line;
// other comments are ignored.
func (m Metrics) parseHeader(line string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 {
		return nil // plain comment
	}
	switch fields[1] {
	case "HELP":
		fam := m.ensure(fields[2])
		if len(fields) == 4 {
			fam.Help = helpUnescaper.Replace(fields[3])
		}
	case "TYPE":
		if len(fields) != 4 {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		switch fields[3] {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", fields[3])
		}
		fam := m.ensure(fields[2])
		if fam.Type != "" && fam.Type != fields[3] {
			return fmt.Errorf("family %s redeclared as %s (was %s)", fields[2], fields[3], fam.Type)
		}
		fam.Type = fields[3]
	}
	return nil
}

// helpUnescaper undoes escapeHelp.
var helpUnescaper = strings.NewReplacer(`\\`, `\`, `\n`, "\n")

func (m Metrics) ensure(name string) *Family {
	if f, ok := m[name]; ok {
		return f
	}
	f := &Family{Name: name}
	m[name] = f
	return f
}

// familyFor resolves a sample name to its declared family, stripping
// the histogram/summary suffixes when the base family is of that type.
func (m Metrics) familyFor(sample string) *Family {
	if f, ok := m[sample]; ok && f.Type != "" {
		return f
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base, ok := strings.CutSuffix(sample, suffix)
		if !ok {
			continue
		}
		if f, exists := m[base]; exists && (f.Type == "histogram" || f.Type == "summary") {
			return f
		}
	}
	return nil
}

// parseSample parses one "name{label="v",...} value [timestamp]" line.
func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if !validName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	if strings.HasPrefix(rest, "{") {
		end, err := parseLabels(rest, s.Labels)
		if err != nil {
			return s, fmt.Errorf("sample %q: %w", line, err)
		}
		rest = rest[end:]
	}
	// An OpenMetrics exemplar clause, when present, follows the value
	// (and optional timestamp) after " # ". Label values cannot hide a
	// separator here: the sample's label block was already consumed.
	var exPart string
	if i := strings.Index(rest, " # "); i >= 0 {
		rest, exPart = rest[:i], strings.TrimSpace(rest[i+3:])
	}
	fields := strings.Fields(rest)
	if len(fields) != 1 && len(fields) != 2 { // optional timestamp
		return s, fmt.Errorf("malformed sample %q", line)
	}
	v, err := parseValue(fields[0])
	if err != nil {
		return s, fmt.Errorf("sample %q: %w", line, err)
	}
	s.Value = v
	if exPart != "" {
		ex, err := parseExemplar(exPart)
		if err != nil {
			return s, fmt.Errorf("sample %q: %w", line, err)
		}
		s.Exemplar = ex
	}
	return s, nil
}

// parseExemplar parses the clause after "# ": a label block, a value,
// and an optional timestamp. A trace_id label must be 32 lowercase hex
// characters — a malformed reference is worse than none.
func parseExemplar(in string) (*SampleExemplar, error) {
	if !strings.HasPrefix(in, "{") {
		return nil, fmt.Errorf("exemplar %q: want label block", in)
	}
	ex := &SampleExemplar{Labels: map[string]string{}}
	end, err := parseLabels(in, ex.Labels)
	if err != nil {
		return nil, fmt.Errorf("exemplar %q: %w", in, err)
	}
	if len(ex.Labels) == 0 {
		return nil, fmt.Errorf("exemplar %q: empty label set", in)
	}
	if tid, ok := ex.Labels["trace_id"]; ok && !validTraceIDHex(tid) {
		return nil, fmt.Errorf("exemplar %q: trace_id %q is not 32 lowercase hex chars", in, tid)
	}
	fields := strings.Fields(in[end:])
	if len(fields) != 1 && len(fields) != 2 {
		return nil, fmt.Errorf("exemplar %q: want value [timestamp]", in)
	}
	if ex.Value, err = parseValue(fields[0]); err != nil {
		return nil, fmt.Errorf("exemplar %q: %w", in, err)
	}
	if len(fields) == 2 {
		if ex.Ts, err = parseValue(fields[1]); err != nil {
			return nil, fmt.Errorf("exemplar %q: timestamp: %w", in, err)
		}
		ex.HasTs = true
	}
	return ex, nil
}

// validTraceIDHex reports whether s is a 32-char lowercase hex W3C
// trace id.
func validTraceIDHex(s string) bool {
	if len(s) != 32 {
		return false
	}
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// parseLabels consumes a {name="value",...} block starting at in[0] == '{'
// and returns the index just past the closing brace.
func parseLabels(in string, out map[string]string) (int, error) {
	i := 1 // past '{'
	for {
		for i < len(in) && (in[i] == ',' || in[i] == ' ') {
			i++
		}
		if i < len(in) && in[i] == '}' {
			return i + 1, nil
		}
		eq := strings.IndexByte(in[i:], '=')
		if eq < 0 {
			return 0, fmt.Errorf("label block %q: missing '='", in)
		}
		name := in[i : i+eq]
		if !validName(name) {
			return 0, fmt.Errorf("invalid label name %q", name)
		}
		i += eq + 1
		if i >= len(in) || in[i] != '"' {
			return 0, fmt.Errorf("label %s: unquoted value", name)
		}
		end := i + 1
		for end < len(in) {
			if in[end] == '\\' {
				end += 2
				continue
			}
			if in[end] == '"' {
				break
			}
			end++
		}
		if end >= len(in) {
			return 0, fmt.Errorf("label %s: unterminated value", name)
		}
		val, err := strconv.Unquote(in[i : end+1])
		if err != nil {
			return 0, fmt.Errorf("label %s: %w", name, err)
		}
		out[name] = val
		i = end + 1
	}
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(+1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// validName reports whether s is a legal metric or label name:
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}

// checkHistogram validates every histogram series of the family: within
// one label set (le excluded) the cumulative bucket counts must be
// non-decreasing, the +Inf bucket must be present, and _count must
// equal it.
func (f *Family) checkHistogram() error {
	type series struct {
		lastLe    float64
		lastCount float64
		infCount  float64
		hasInf    bool
		count     float64
		hasCount  bool
	}
	bySeries := map[string]*series{}
	get := func(labels map[string]string) *series {
		key := labelKey(labels, "le")
		s, ok := bySeries[key]
		if !ok {
			s = &series{lastLe: math.Inf(-1)}
			bySeries[key] = s
		}
		return s
	}
	for _, sm := range f.Samples {
		switch {
		case strings.HasSuffix(sm.Name, "_bucket"):
			s := get(sm.Labels)
			le, err := parseValue(sm.Labels["le"])
			if err != nil {
				return fmt.Errorf("bucket le %q: %w", sm.Labels["le"], err)
			}
			if le <= s.lastLe {
				return fmt.Errorf("bucket le %v out of order", le)
			}
			if sm.Value < s.lastCount {
				return fmt.Errorf("cumulative bucket count decreased at le=%v", le)
			}
			s.lastLe, s.lastCount = le, sm.Value
			if math.IsInf(le, +1) {
				s.hasInf, s.infCount = true, sm.Value
			}
		case strings.HasSuffix(sm.Name, "_count"):
			s := get(sm.Labels)
			s.hasCount, s.count = true, sm.Value
		}
	}
	for key, s := range bySeries {
		if !s.hasInf {
			return fmt.Errorf("series {%s}: no le=\"+Inf\" bucket", key)
		}
		if s.hasCount && s.count != s.infCount {
			return fmt.Errorf("series {%s}: _count %v != +Inf bucket %v", key, s.count, s.infCount)
		}
	}
	return nil
}

// labelKey renders a label set minus the named label, deterministically.
func labelKey(labels map[string]string, drop string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != drop {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	return b.String()
}

// LabelKey renders a label set in canonical form — sorted name="value"
// pairs, comma-joined — the series-identity key for consumers that need
// to tell samples of one family apart (the tsdb keys series by sample
// name plus this).
func LabelKey(labels map[string]string) string { return labelKey(labels, "") }

// Value returns the value of the single sample of family name matching
// all the given labels (subset match: the sample may carry more). It
// reports false when no sample matches; multiple matches return the
// first in exposition order.
func (m Metrics) Value(name string, labels map[string]string) (float64, bool) {
	fam, ok := m[name]
	if !ok {
		// _bucket/_sum/_count samples live under their base family.
		if fam = m.familyFor(name); fam == nil {
			return 0, false
		}
	}
	for _, s := range fam.Samples {
		if s.Name != name {
			continue
		}
		match := true
		for k, v := range labels {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s.Value, true
		}
	}
	return 0, false
}
