package comm

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/detector"
	"repro/internal/osid"
)

// The reference codec: Message.Encode, ParseLine, detector.Report.Encode
// and detector.Parse as they stood when the wire format was written
// with fmt.Sprintf and split with strings.Fields, kept verbatim
// (renamed) so FuzzWireMatchesReference can hold the byte codec to
// them.

const (
	refMaxIDLen = 63
	refMaxCPUs  = 9999
)

func refReportEncode(r detector.Report) string {
	state := byte('0')
	if r.Stuck {
		state = '1'
	}
	cpus := r.NeededCPUs
	if cpus < 0 {
		cpus = 0
	}
	if cpus > refMaxCPUs {
		cpus = refMaxCPUs
	}
	id := r.StuckJobID
	if id == "" {
		id = detector.NoneID
	}
	if len(id) > refMaxIDLen {
		id = id[:refMaxIDLen]
	}
	return fmt.Sprintf("%c%04d%s", state, cpus, id)
}

func refDetectorParse(s string) (detector.Report, error) {
	s = strings.TrimSpace(s)
	if len(s) < 6 {
		return detector.Report{}, fmt.Errorf("detector: report %q too short", s)
	}
	var r detector.Report
	switch s[0] {
	case '1':
		r.Stuck = true
	case '0':
		r.Stuck = false
	default:
		return detector.Report{}, fmt.Errorf("detector: bad state byte %q", s[0])
	}
	cpus, err := strconv.Atoi(s[1:5])
	if err != nil || cpus < 0 {
		return detector.Report{}, fmt.Errorf("detector: bad CPU field %q", s[1:5])
	}
	r.NeededCPUs = cpus
	id := s[5:]
	if len(id) > refMaxIDLen {
		id = id[:refMaxIDLen]
	}
	r.StuckJobID = id
	return r, nil
}

func refEncode(m Message) string {
	switch m.Kind {
	case KindState:
		return fmt.Sprintf("STATE %s %s", m.From, refReportEncode(m.Report))
	case KindReboot:
		return fmt.Sprintf("REBOOT %s %s %d", m.From, m.Target, m.Count)
	case KindAck:
		return "ACK"
	default:
		return "UNKNOWN"
	}
}

func refParseLine(line string) (Message, error) {
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) == 0 {
		return Message{}, fmt.Errorf("comm: empty message")
	}
	switch fields[0] {
	case "STATE":
		if len(fields) != 3 {
			return Message{}, fmt.Errorf("comm: STATE wants 2 args, got %d", len(fields)-1)
		}
		from, err := osid.Parse(fields[1])
		if err != nil || !from.Valid() {
			return Message{}, fmt.Errorf("comm: STATE: bad side %q", fields[1])
		}
		rep, err := refDetectorParse(fields[2])
		if err != nil {
			return Message{}, fmt.Errorf("comm: STATE: %w", err)
		}
		return Message{Kind: KindState, From: from, Report: rep}, nil
	case "REBOOT":
		if len(fields) != 4 {
			return Message{}, fmt.Errorf("comm: REBOOT wants 3 args, got %d", len(fields)-1)
		}
		from, err := osid.Parse(fields[1])
		if err != nil || !from.Valid() {
			return Message{}, fmt.Errorf("comm: REBOOT: bad side %q", fields[1])
		}
		target, err := osid.Parse(fields[2])
		if err != nil || !target.Valid() {
			return Message{}, fmt.Errorf("comm: REBOOT: bad target %q", fields[2])
		}
		count, err := strconv.Atoi(fields[3])
		if err != nil || count <= 0 {
			return Message{}, fmt.Errorf("comm: REBOOT: bad count %q", fields[3])
		}
		return Message{Kind: KindReboot, From: from, Target: target, Count: count}, nil
	case "ACK":
		return Message{Kind: KindAck}, nil
	default:
		return Message{}, fmt.Errorf("comm: unknown verb %q", fields[0])
	}
}
