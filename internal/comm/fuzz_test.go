package comm

import (
	"strings"
	"testing"

	"repro/internal/detector"
	"repro/internal/osid"
)

// errText renders an error for comparison; nil is the empty string.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// FuzzWireMatchesReference holds the byte codec to the reference codec
// in reference_test.go. For any line, ParseLine, ParseBytes and the
// reference agree on accept or reject, on the error text and on the
// message; ParseBytes's message must not change when its buffer is
// overwritten afterwards. For any accepted message and for one message
// built from the other inputs (unclamped CPUs, long IDs, any kind and
// side bytes), AppendEncode writes the reference's bytes behind an
// existing prefix. detector.Parse is held to its reference on the same
// line.
func FuzzWireMatchesReference(f *testing.F) {
	for _, line := range []string{
		"STATE windows 00000none",
		"STATE linux 100041191.eridani.qgg.hud.ac.uk", // Figure 6
		"STATE windows 100049.WINHEAD",
		"  STATE\twindows  00000none \r\n",
		"STATE\u0085windows 00000none", "STATE windows\u00a000000none", // NEL, NBSP
		"STATE\u2003windows 100081.w\u3000", // em space, ideographic space
		"STATE L 1+004x", "STATE WIN 1-000x", "STATE lin 1-001x", "STATE w 10x04y",
		"STATE \u0130 00000none", "STATE w\u0130ndows 00000none", "STATE L\u0130NUX 00000none", // U+0130 lower-cases to i
		"STATE windows 1\xff\xfe00x", "STATE \xffwindows 00000none",
		"STATE windows 19999" + strings.Repeat("j", 80),
		"STATE windows 10004" + strings.Repeat("é", 40),
		"STATE none 00000none", "STATE windows", "STATE windows 0000",
		"REBOOT linux windows 3", "REBOOT Linux W +7", "REBOOT linux windows 007",
		"REBOOT linux windows 0", "REBOOT linux windows -0", "REBOOT linux windows -2",
		"REBOOT linux windows 9223372036854775807", "REBOOT linux windows 9223372036854775808",
		"REBOOT linux windows 99999999999999999999", "REBOOT linux windows +", "REBOOT linux windows 1_0",
		"REBOOT linux linux 1", "REBOOT pluto linux 1", "REBOOT linux windows 1 extra",
		" 00000none\t", "\u00a0100041191.x\u0085", "1+004x", // detector.Parse trims Unicode space
		"ACK", "ACK trailing words", "ack", "", "   ", " ", "GARBAGE", "UNKNOWN",
	} {
		f.Add(line, uint8(KindState), uint8(osid.Windows), uint8(osid.Linux), 1, true, 16, "1191.eridani.qgg.hud.ac.uk")
	}
	f.Add("", uint8(KindState), uint8(osid.Linux), uint8(0), 0, true, 123456, strings.Repeat("x", 100))
	f.Add("", uint8(KindState), uint8(osid.Windows), uint8(0), 0, false, -3, "")
	f.Add("", uint8(KindReboot), uint8(osid.Linux), uint8(osid.Windows), -5, false, 0, "")
	f.Add("", uint8(KindReboot), uint8(9), uint8(200), 1<<40, false, 0, "")
	f.Add("", uint8(KindAck), uint8(0), uint8(0), 0, false, 0, "")
	f.Add("", uint8(77), uint8(0), uint8(0), 0, false, 0, "")

	f.Fuzz(func(t *testing.T, line string, kind, from, target uint8, count int, stuck bool, cpus int, id string) {
		want, wantErr := refParseLine(line)
		got, err := ParseLine(line)
		if errText(err) != errText(wantErr) || got != want {
			t.Fatalf("ParseLine(%q) = %+v, %v; reference %+v, %v", line, got, err, want, wantErr)
		}
		buf := []byte(line)
		got, err = ParseBytes(buf)
		for i := range buf {
			buf[i] = '#'
		}
		if errText(err) != errText(wantErr) || got != want {
			t.Fatalf("ParseBytes(%q) = %+v, %v after its buffer was overwritten; reference %+v, %v",
				line, got, err, want, wantErr)
		}
		wantRep, wantRepErr := refDetectorParse(line)
		rep, err := detector.Parse(line)
		if errText(err) != errText(wantRepErr) || rep != wantRep {
			t.Fatalf("detector.Parse(%q) = %+v, %v; reference %+v, %v", line, rep, err, wantRep, wantRepErr)
		}

		built := Message{Kind: Kind(kind), From: osid.OS(from), Target: osid.OS(target), Count: count,
			Report: detector.Report{Stuck: stuck, NeededCPUs: cpus, StuckJobID: id}}
		msgs := []Message{built}
		if wantErr == nil {
			msgs = append(msgs, want)
		}
		for _, m := range msgs {
			ref := refEncode(m)
			if enc := string(m.AppendEncode([]byte("prefix "))); enc != "prefix "+ref {
				t.Fatalf("AppendEncode(%+v) = %q, reference %q", m, enc, "prefix "+ref)
			}
			if enc := m.Encode(); enc != ref {
				t.Fatalf("Encode(%+v) = %q, reference %q", m, enc, ref)
			}
		}
	})
}
