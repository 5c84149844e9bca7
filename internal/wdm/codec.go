package wdm

import (
	"fmt"
	"strconv"
	"strings"
)

// This file defines a compact, parseable text form for slots,
// connections and assignments, used by the trace tooling and golden
// tests:
//
//	slot:        "<port>.<wave>"            e.g. "3.1"
//	connection:  "<slot>><slot>,<slot>..."  e.g. "0.0>1.1,2.0"
//	assignment:  connections joined by ";"  e.g. "0.0>1.0;1.1>0.1"
//
// The pretty-printer String() forms (with λ glyphs) remain for humans;
// these forms round-trip.

// FormatSlot renders a slot as "<port>.<wave>".
func FormatSlot(pw PortWave) string {
	var buf [41]byte // two int64s and the dot
	return string(appendSlot(buf[:0], pw))
}

// appendSlot appends FormatSlot's form of pw to b.
func appendSlot(b []byte, pw PortWave) []byte {
	b = strconv.AppendInt(b, int64(pw.Port), 10)
	b = append(b, '.')
	return strconv.AppendInt(b, int64(pw.Wave), 10)
}

// ParseSlot parses FormatSlot's output.
func ParseSlot(s string) (PortWave, error) {
	parts := strings.Split(strings.TrimSpace(s), ".")
	if len(parts) != 2 {
		return PortWave{}, fmt.Errorf("wdm: slot %q: want <port>.<wave>", s)
	}
	p, err := strconv.Atoi(parts[0])
	if err != nil {
		return PortWave{}, fmt.Errorf("wdm: slot %q: bad port: %v", s, err)
	}
	w, err := strconv.Atoi(parts[1])
	if err != nil {
		return PortWave{}, fmt.Errorf("wdm: slot %q: bad wavelength: %v", s, err)
	}
	if p < 0 || w < 0 {
		return PortWave{}, fmt.Errorf("wdm: slot %q: negative component", s)
	}
	return PortWave{Port: Port(p), Wave: Wavelength(w)}, nil
}

// FormatConnection renders a connection as "<src>><dst>,<dst>...".
func FormatConnection(c Connection) string {
	var buf [128]byte // a fanout-16 connection of a 1024-port network fits
	b := appendSlot(buf[:0], c.Source)
	b = append(b, '>')
	for i, d := range c.Dests {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendSlot(b, d)
	}
	return string(b)
}

// ParseConnection parses FormatConnection's output.
func ParseConnection(s string) (Connection, error) {
	s = strings.TrimSpace(s)
	halves := strings.SplitN(s, ">", 2)
	if len(halves) != 2 || halves[1] == "" {
		return Connection{}, fmt.Errorf("wdm: connection %q: want <src>><dst>[,<dst>...]", s)
	}
	src, err := ParseSlot(halves[0])
	if err != nil {
		return Connection{}, fmt.Errorf("wdm: connection %q: %v", s, err)
	}
	c := Connection{Source: src}
	for _, ds := range strings.Split(halves[1], ",") {
		d, err := ParseSlot(ds)
		if err != nil {
			return Connection{}, fmt.Errorf("wdm: connection %q: %v", s, err)
		}
		c.Dests = append(c.Dests, d)
	}
	return c, nil
}

// FormatAssignment renders an assignment with ";" between connections.
func FormatAssignment(a Assignment) string {
	parts := make([]string, len(a))
	for i, c := range a {
		parts[i] = FormatConnection(c)
	}
	return strings.Join(parts, ";")
}

// ParseAssignment parses FormatAssignment's output. An empty string is
// the empty assignment.
func ParseAssignment(s string) (Assignment, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var a Assignment
	for _, cs := range strings.Split(s, ";") {
		c, err := ParseConnection(cs)
		if err != nil {
			return nil, err
		}
		a = append(a, c)
	}
	return a, nil
}
