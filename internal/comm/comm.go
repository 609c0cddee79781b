// Package comm implements the head-node communicators of
// dualboot-oscar: the Windows head sends its queue state to the Linux
// head over a TCP socket on a fixed cycle, and reboot orders flow back
// (paper §IV-A3, Figure 11). The protocol is line-based text carrying
// the Figure-5 detector wire format.
//
// Two transports share one message codec, AppendEncode and ParseBytes
// (Encode and ParseLine wrap them for strings):
//
//   - Bus: an in-memory transport driven by the simulation clock, used
//     by all experiments (deterministic, optional link latency);
//   - TCP (tcp.go): a real net-based transport used by cmd/dualbootd
//     and the live-wire integration test.
//
// The Bus encodes every message into a line buffer and parses it back
// on delivery. The buffers belong to in-flight records the Bus reuses
// once a delivery has run, so a control cycle allocates nothing in
// steady state. The one allocation left is a stuck job's ID, which
// the parser copies out of the buffer so that a delivered message
// never changes under its receiver.
package comm

import (
	"fmt"
	"math"
	"strconv"
	"time"
	"unicode"
	"unicode/utf8"

	"repro/internal/detector"
	"repro/internal/osid"
	"repro/internal/simtime"
)

// Kind enumerates the protocol messages.
type Kind uint8

const (
	// KindState carries a detector report ("queue state").
	KindState Kind = iota
	// KindReboot orders the receiving head to submit reboot batch jobs
	// for Count nodes, booting them into Target.
	KindReboot
	// KindAck acknowledges receipt.
	KindAck
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindState:
		return "STATE"
	case KindReboot:
		return "REBOOT"
	case KindAck:
		return "ACK"
	default:
		return "UNKNOWN"
	}
}

// Message is one protocol datagram.
type Message struct {
	Kind   Kind
	From   osid.OS         // sending head node's side
	Report detector.Report // KindState payload
	Target osid.OS         // KindReboot: OS to boot into
	Count  int             // KindReboot: node count
}

// Encode renders the wire line (without trailing newline).
func (m Message) Encode() string {
	var buf [96]byte // the longest line: a STATE with a 63-byte job ID
	return string(m.AppendEncode(buf[:0]))
}

// AppendEncode appends the wire line of m (without trailing newline)
// to dst and returns the extended buffer.
func (m Message) AppendEncode(dst []byte) []byte {
	switch m.Kind {
	case KindState:
		dst = append(append(append(dst, "STATE "...), m.From.String()...), ' ')
		return m.Report.AppendEncode(dst)
	case KindReboot:
		dst = append(append(append(dst, "REBOOT "...), m.From.String()...), ' ')
		dst = append(append(dst, m.Target.String()...), ' ')
		return strconv.AppendInt(dst, int64(m.Count), 10)
	case KindAck:
		return append(dst, "ACK"...)
	default:
		return append(dst, "UNKNOWN"...)
	}
}

// ParseLine decodes a wire line.
func ParseLine(line string) (Message, error) { return ParseBytes([]byte(line)) }

// ParseBytes decodes a wire line like ParseLine. The message shares no
// memory with line (see detector.ParseBytes), so the caller may reuse
// line at once.
func ParseBytes(line []byte) (Message, error) {
	fields, n := splitFields(line)
	if n == 0 {
		return Message{}, fmt.Errorf("comm: empty message")
	}
	switch string(fields[0]) {
	case "STATE":
		if n != 3 {
			return Message{}, fmt.Errorf("comm: STATE wants 2 args, got %d", n-1)
		}
		from, ok := parseSide(fields[1])
		if !ok {
			return Message{}, fmt.Errorf("comm: STATE: bad side %q", string(fields[1]))
		}
		rep, err := detector.ParseBytes(fields[2])
		if err != nil {
			return Message{}, fmt.Errorf("comm: STATE: %w", err)
		}
		return Message{Kind: KindState, From: from, Report: rep}, nil
	case "REBOOT":
		if n != 4 {
			return Message{}, fmt.Errorf("comm: REBOOT wants 3 args, got %d", n-1)
		}
		from, ok := parseSide(fields[1])
		if !ok {
			return Message{}, fmt.Errorf("comm: REBOOT: bad side %q", string(fields[1]))
		}
		target, ok := parseSide(fields[2])
		if !ok {
			return Message{}, fmt.Errorf("comm: REBOOT: bad target %q", string(fields[2]))
		}
		count, err := strconv.Atoi(string(fields[3]))
		if err != nil || count <= 0 {
			return Message{}, fmt.Errorf("comm: REBOOT: bad count %q", string(fields[3]))
		}
		return Message{Kind: KindReboot, From: from, Target: target, Count: count}, nil
	case "ACK":
		return Message{Kind: KindAck}, nil
	default:
		return Message{}, fmt.Errorf("comm: unknown verb %q", string(fields[0]))
	}
}

// splitFields splits line around runs of Unicode white space, as
// strings.Fields does. It returns the first four fields and how many
// there are in all.
func splitFields(line []byte) (fields [4][]byte, n int) {
	start := -1
	for i := 0; i < len(line); {
		r, size := rune(line[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRune(line[i:])
		}
		if unicode.IsSpace(r) {
			if start >= 0 {
				if n < len(fields) {
					fields[n] = line[start:i]
				}
				n, start = n+1, -1
			}
		} else if start < 0 {
			start = i
		}
		i += size
	}
	if start >= 0 {
		if n < len(fields) {
			fields[n] = line[start:]
		}
		n++
	}
	return fields, n
}

// parseSide accepts the names osid.Parse maps to Linux or Windows.
func parseSide(f []byte) (osid.OS, bool) {
	os, err := osid.Parse(string(f))
	return os, err == nil && os.Valid()
}

// Handler receives delivered messages; from is the sender's endpoint
// name.
type Handler func(from string, m Message)

// Stats counts bus traffic.
type Stats struct {
	Sent      int
	Delivered int
	Dropped   int // sends to unregistered endpoints
	ByKind    map[Kind]int
}

// Bus is the simulation transport: named endpoints, deliveries
// scheduled on the engine after a configurable link latency. A
// head-node LAN hop in the paper's cluster is sub-millisecond; the
// default matches that but experiments can inflate it.
type Bus struct {
	eng      *simtime.Engine
	latency  time.Duration
	handlers map[string]Handler
	stats    Stats // ByKind stays nil; byKind counts
	byKind   [math.MaxUint8 + 1]int

	// free holds in-flight records whose delivery has run; Send reuses
	// them, line buffer and all. deliver is b.deliverArg, built once.
	free    []*flight
	deliver func(any)
}

// flight is one message on the wire: its endpoints and encoded line.
type flight struct {
	from, to string
	line     []byte
}

// NewBus creates an in-memory transport on the engine.
func NewBus(eng *simtime.Engine, latency time.Duration) *Bus {
	if latency < 0 {
		latency = 0
	}
	b := &Bus{
		eng:      eng,
		latency:  latency,
		handlers: make(map[string]Handler),
	}
	b.deliver = b.deliverArg
	return b
}

// Register attaches an endpoint; a second registration with the same
// name replaces the handler (a daemon restart).
func (b *Bus) Register(name string, h Handler) {
	if h == nil {
		delete(b.handlers, name)
		return
	}
	b.handlers[name] = h
}

// Send encodes and delivers m to the named endpoint after the link
// latency. Sends to unknown endpoints are counted and dropped — the
// paper's daemons tolerate the peer being down and retry on the next
// cycle.
func (b *Bus) Send(from, to string, m Message) {
	b.stats.Sent++
	b.byKind[m.Kind]++
	var f *flight
	if n := len(b.free); n > 0 {
		f = b.free[n-1]
		b.free = b.free[:n-1]
	} else {
		f = new(flight)
	}
	f.from, f.to = from, to
	f.line = m.AppendEncode(f.line[:0])
	b.eng.AfterArg(b.latency, b.deliver, f)
}

// deliverArg hands the in-flight record arg to its endpoint. The record
// goes back on the free list before the handler runs: the parsed
// message shares no memory with its line, and a handler that sends in
// turn can reuse the record.
func (b *Bus) deliverArg(arg any) {
	f := arg.(*flight)
	from := f.from
	h, ok := b.handlers[f.to]
	var parsed Message
	var err error
	if ok {
		// Round-trip through the codec so both transports exercise the
		// identical wire format.
		parsed, err = ParseBytes(f.line)
	}
	f.from, f.to = "", ""
	b.free = append(b.free, f)
	if !ok || err != nil {
		b.stats.Dropped++
		return
	}
	b.stats.Delivered++
	h(from, parsed)
}

// Stats returns a copy of the traffic counters.
func (b *Bus) Stats() Stats {
	out := b.stats
	out.ByKind = make(map[Kind]int)
	for k, v := range b.byKind {
		if v > 0 {
			out.ByKind[Kind(k)] = v
		}
	}
	return out
}
