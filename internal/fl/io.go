package fl

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The text instance format, line oriented:
//
//	# comment
//	ufl <m> <nc> [name]
//	f <i> <openingCost>          (one per facility; missing facilities cost 0)
//	e <i> <j> <connectionCost>   (one per edge)
//
// Whitespace separates fields; blank lines and lines starting with '#' are
// ignored. The format is append-friendly and diff-friendly, which is what
// the benchmark harness wants for checked-in fixtures.

// Write serializes inst in the text instance format.
func Write(w io.Writer, inst *Instance) error {
	bw := bufio.NewWriter(w)
	name := inst.Name()
	if name == "" {
		name = "unnamed"
	}
	fmt.Fprintf(bw, "ufl %d %d %s\n", inst.M(), inst.NC(), sanitizeName(name))
	for i := 0; i < inst.M(); i++ {
		fmt.Fprintf(bw, "f %d %d\n", i, inst.FacilityCost(i))
	}
	for i := 0; i < inst.M(); i++ {
		for _, e := range inst.FacilityEdges(i) {
			fmt.Fprintf(bw, "e %d %d %d\n", i, e.To, e.Cost)
		}
	}
	return bw.Flush()
}

// StreamWriter emits the text instance format incrementally — header first,
// then one callback per facility and edge — so a streamed generator can
// serialize an arbitrarily large instance with O(1) writer state. Edge
// order on disk is whatever order the stream produces (Read canonicalizes
// on parse, so the formats round-trip).
type StreamWriter struct {
	bw *bufio.Writer
	m  int
	nc int
}

// NewStreamWriter writes the header and returns a writer whose Facility and
// Edge methods append the corresponding lines.
func NewStreamWriter(w io.Writer, name string, m, nc int) (*StreamWriter, error) {
	if name == "" {
		name = "unnamed"
	}
	sw := &StreamWriter{bw: bufio.NewWriter(w), m: m, nc: nc}
	if _, err := fmt.Fprintf(sw.bw, "ufl %d %d %s\n", m, nc, sanitizeName(name)); err != nil {
		return nil, err
	}
	return sw, nil
}

// Facility writes facility i's opening cost line.
func (sw *StreamWriter) Facility(i int, cost int64) error {
	if i < 0 || i >= sw.m {
		return fmt.Errorf("fl: facility index %d out of range [0,%d)", i, sw.m)
	}
	_, err := fmt.Fprintf(sw.bw, "f %d %d\n", i, cost)
	return err
}

// Edge writes one connection cost line.
func (sw *StreamWriter) Edge(f, c int, cost int64) error {
	if f < 0 || f >= sw.m || c < 0 || c >= sw.nc {
		return fmt.Errorf("fl: edge (%d,%d) out of range (%d facilities, %d clients)", f, c, sw.m, sw.nc)
	}
	_, err := fmt.Fprintf(sw.bw, "e %d %d %d\n", f, c, cost)
	return err
}

// Flush drains the buffered output; call it once after the stream ends.
func (sw *StreamWriter) Flush() error { return sw.bw.Flush() }

func sanitizeName(s string) string {
	return strings.Map(func(r rune) rune {
		if r == ' ' || r == '\t' || r == '\n' {
			return '-'
		}
		return r
	}, s)
}

// Read parses an instance in the text instance format.
func Read(r io.Reader) (*Instance, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var (
		m, nc     int
		name      string
		headerSet bool
		facCost   []int64
		edges     []RawEdge
	)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "ufl":
			if headerSet {
				return nil, fmt.Errorf("fl: line %d: duplicate header", lineNo)
			}
			if len(fields) < 3 {
				return nil, fmt.Errorf("fl: line %d: header needs 'ufl <m> <nc>'", lineNo)
			}
			var err error
			if m, err = strconv.Atoi(fields[1]); err != nil {
				return nil, fmt.Errorf("fl: line %d: bad facility count: %w", lineNo, err)
			}
			if nc, err = strconv.Atoi(fields[2]); err != nil {
				return nil, fmt.Errorf("fl: line %d: bad client count: %w", lineNo, err)
			}
			if m <= 0 || nc < 0 || m > 1<<24 || nc > 1<<24 {
				return nil, fmt.Errorf("fl: line %d: unreasonable sizes m=%d nc=%d", lineNo, m, nc)
			}
			if len(fields) > 3 {
				name = fields[3]
			}
			facCost = make([]int64, m)
			headerSet = true
		case "f":
			if !headerSet {
				return nil, fmt.Errorf("fl: line %d: 'f' before header", lineNo)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("fl: line %d: want 'f <i> <cost>'", lineNo)
			}
			i, err := strconv.Atoi(fields[1])
			if err != nil || i < 0 || i >= m {
				return nil, fmt.Errorf("fl: line %d: bad facility index %q", lineNo, fields[1])
			}
			c, err := strconv.ParseInt(fields[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fl: line %d: bad cost: %w", lineNo, err)
			}
			facCost[i] = c
		case "e":
			if !headerSet {
				return nil, fmt.Errorf("fl: line %d: 'e' before header", lineNo)
			}
			if len(fields) != 4 {
				return nil, fmt.Errorf("fl: line %d: want 'e <i> <j> <cost>'", lineNo)
			}
			i, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("fl: line %d: bad facility index: %w", lineNo, err)
			}
			j, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("fl: line %d: bad client index: %w", lineNo, err)
			}
			c, err := strconv.ParseInt(fields[3], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fl: line %d: bad cost: %w", lineNo, err)
			}
			edges = append(edges, RawEdge{Facility: i, Client: j, Cost: c})
		default:
			return nil, fmt.Errorf("fl: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("fl: read: %w", err)
	}
	if !headerSet {
		return nil, fmt.Errorf("fl: missing 'ufl' header")
	}
	return New(name, facCost, nc, edges)
}
