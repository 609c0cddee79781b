package comm

import (
	"net"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/detector"
	"repro/internal/osid"
	"repro/internal/simtime"
)

func TestMessageEncodeDecode(t *testing.T) {
	cases := []Message{
		{Kind: KindState, From: osid.Windows, Report: detector.Report{Stuck: false, StuckJobID: "none"}},
		{Kind: KindState, From: osid.Linux, Report: detector.Report{Stuck: true, NeededCPUs: 16, StuckJobID: "12.eridani.qgg.hud.ac.uk"}},
		{Kind: KindReboot, From: osid.Linux, Target: osid.Windows, Count: 3},
		{Kind: KindAck},
	}
	for _, m := range cases {
		back, err := ParseLine(m.Encode())
		if err != nil {
			t.Fatalf("ParseLine(%q): %v", m.Encode(), err)
		}
		if back != m {
			t.Fatalf("round trip %q: %+v != %+v", m.Encode(), back, m)
		}
	}
}

func TestEncodeShapes(t *testing.T) {
	m := Message{Kind: KindState, From: osid.Windows,
		Report: detector.Report{Stuck: true, NeededCPUs: 4, StuckJobID: "9.WINHEAD"}}
	if got := m.Encode(); got != "STATE windows 100049.WINHEAD" {
		t.Fatalf("Encode = %q", got)
	}
	r := Message{Kind: KindReboot, From: osid.Linux, Target: osid.Windows, Count: 2}
	if got := r.Encode(); got != "REBOOT linux windows 2" {
		t.Fatalf("Encode = %q", got)
	}
}

func TestParseLineErrors(t *testing.T) {
	for _, line := range []string{
		"", "  ", "BOGUS x", "STATE", "STATE windows", "STATE mars 00000none",
		"STATE windows zz", "REBOOT linux windows", "REBOOT linux windows x",
		"REBOOT linux windows 0", "REBOOT linux windows -2", "REBOOT linux pluto 1",
		"REBOOT pluto linux 1",
	} {
		if _, err := ParseLine(line); err == nil {
			t.Errorf("ParseLine(%q) succeeded", line)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindState.String() != "STATE" || KindReboot.String() != "REBOOT" ||
		KindAck.String() != "ACK" || Kind(9).String() != "UNKNOWN" {
		t.Fatal("kind strings wrong")
	}
}

func TestBusDeliversAfterLatency(t *testing.T) {
	eng := simtime.NewEngine()
	bus := NewBus(eng, 100*time.Millisecond)
	var deliveredAt time.Duration
	var got Message
	bus.Register("LINHEAD", func(from string, m Message) {
		deliveredAt = eng.Now()
		got = m
	})
	msg := Message{Kind: KindState, From: osid.Windows,
		Report: detector.Report{Stuck: true, NeededCPUs: 8, StuckJobID: "3.w"}}
	bus.Send("WINHEAD", "LINHEAD", msg)
	eng.Run()
	if deliveredAt != 100*time.Millisecond {
		t.Fatalf("delivered at %v", deliveredAt)
	}
	if got != msg {
		t.Fatalf("got %+v", got)
	}
}

// TestDeliveredStuckIDOutlivesLaterSends: the Bus reuses its line
// buffers, so a delivered report's job ID must be a copy; later sends
// over the same buffers must not change it.
func TestDeliveredStuckIDOutlivesLaterSends(t *testing.T) {
	eng := simtime.NewEngine()
	bus := NewBus(eng, time.Millisecond)
	var got []Message
	bus.Register("LINHEAD", func(_ string, m Message) { got = append(got, m) })
	send := func(id string) {
		bus.Send("WINHEAD", "LINHEAD", Message{Kind: KindState, From: osid.Windows,
			Report: detector.Report{Stuck: true, NeededCPUs: 8, StuckJobID: id}})
	}
	send("7.WINHEAD")
	eng.Run()
	for _, id := range []string{"8.WINHEAD", "9.WINHEAD", "none", "123456789.WINHEAD"} {
		send(id)
		eng.Run()
	}
	if len(got) != 5 {
		t.Fatalf("delivered %d messages, want 5", len(got))
	}
	if id := got[0].Report.StuckJobID; id != "7.WINHEAD" {
		t.Fatalf("first delivered job ID became %q after later sends, want 7.WINHEAD", id)
	}
	if got[3].Report.StuckJobID != detector.NoneID {
		t.Fatalf("none ID delivered as %q", got[3].Report.StuckJobID)
	}
}

func TestBusDropsUnknownEndpoint(t *testing.T) {
	eng := simtime.NewEngine()
	bus := NewBus(eng, 0)
	bus.Send("a", "ghost", Message{Kind: KindAck})
	eng.Run()
	st := bus.Stats()
	if st.Sent != 1 || st.Dropped != 1 || st.Delivered != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBusReregister(t *testing.T) {
	eng := simtime.NewEngine()
	bus := NewBus(eng, 0)
	calls := 0
	bus.Register("x", func(string, Message) { calls++ })
	bus.Register("x", func(string, Message) { calls += 10 })
	bus.Send("y", "x", Message{Kind: KindAck})
	eng.Run()
	if calls != 10 {
		t.Fatalf("calls = %d, want replacement handler only", calls)
	}
	bus.Register("x", nil) // unregister
	bus.Send("y", "x", Message{Kind: KindAck})
	eng.Run()
	if bus.Stats().Dropped != 1 {
		t.Fatal("unregistered endpoint did not drop")
	}
}

func TestBusStatsByKind(t *testing.T) {
	eng := simtime.NewEngine()
	bus := NewBus(eng, 0)
	bus.Register("x", func(string, Message) {})
	bus.Send("y", "x", Message{Kind: KindState, From: osid.Linux, Report: detector.Report{StuckJobID: "none"}})
	bus.Send("y", "x", Message{Kind: KindReboot, From: osid.Linux, Target: osid.Windows, Count: 1})
	bus.Send("y", "x", Message{Kind: KindReboot, From: osid.Linux, Target: osid.Windows, Count: 1})
	eng.Run()
	st := bus.Stats()
	if st.ByKind[KindState] != 1 || st.ByKind[KindReboot] != 2 {
		t.Fatalf("by kind = %+v", st.ByKind)
	}
}

func TestBusNegativeLatencyClamped(t *testing.T) {
	eng := simtime.NewEngine()
	bus := NewBus(eng, -time.Second)
	done := false
	bus.Register("x", func(string, Message) { done = true })
	bus.Send("y", "x", Message{Kind: KindAck})
	eng.Run()
	if !done {
		t.Fatal("message lost")
	}
}

func TestTCPRoundTrip(t *testing.T) {
	var mu sync.Mutex
	var received []Message
	srv, err := ListenTCP("127.0.0.1:0", func(from string, m Message) {
		mu.Lock()
		received = append(received, m)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	msgs := []Message{
		{Kind: KindState, From: osid.Windows, Report: detector.Report{Stuck: true, NeededCPUs: 4, StuckJobID: "7.w"}},
		{Kind: KindReboot, From: osid.Linux, Target: osid.Linux, Count: 2},
	}
	for _, m := range msgs {
		if err := SendTCP(srv.Addr(), m, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(received) != 2 {
		t.Fatalf("received %d messages", len(received))
	}
	for i := range msgs {
		if received[i] != msgs[i] {
			t.Fatalf("msg %d: %+v != %+v", i, received[i], msgs[i])
		}
	}
}

func TestTCPSendToDeadServer(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", func(string, Message) {})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	srv.Close()
	if err := SendTCP(addr, Message{Kind: KindAck}, 200*time.Millisecond); err == nil {
		t.Fatal("send to closed server succeeded")
	}
}

func TestTCPNilHandler(t *testing.T) {
	if _, err := ListenTCP("127.0.0.1:0", nil); err == nil {
		t.Fatal("nil handler accepted")
	}
}

func TestTCPDoubleClose(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", func(string, Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestTCPMalformedLineGetsError(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", func(string, Message) { t.Error("handler called for garbage") })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// SendTCP validates on encode, so speak raw bytes here.
	err = func() error {
		conn, err := dialRaw(srv.Addr())
		if err != nil {
			return err
		}
		defer conn.Close()
		if _, err := conn.Write([]byte("GARBAGE\n")); err != nil {
			return err
		}
		buf := make([]byte, 64)
		n, _ := conn.Read(buf)
		if !strings.HasPrefix(string(buf[:n]), "ERR") {
			t.Errorf("response = %q, want ERR", buf[:n])
		}
		return nil
	}()
	if err != nil {
		t.Fatal(err)
	}
}

// Property: every syntactically valid REBOOT round-trips.
func TestQuickRebootRoundTrip(t *testing.T) {
	f := func(count uint8, toWindows bool) bool {
		c := int(count)%999 + 1
		target := osid.Linux
		if toWindows {
			target = osid.Windows
		}
		m := Message{Kind: KindReboot, From: target.Other(), Target: target, Count: c}
		back, err := ParseLine(m.Encode())
		return err == nil && back == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func dialRaw(addr string) (interface {
	Write([]byte) (int, error)
	Read([]byte) (int, error)
	Close() error
}, error) {
	return net.DialTimeout("tcp", addr, time.Second)
}
