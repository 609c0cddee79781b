package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// reportOverhead runs the workload untraced n times and traced once,
// each in a process of its own, and prints the tracing overhead: the
// traced run's wall_s minus the median of the untraced ones.
func reportOverhead(w io.Writer, name string, seed int64, seconds float64, n int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	runOnce := func(trace int) (result, error) {
		cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return result{}, fmt.Errorf("%s --trace %d: %w", name, trace, err)
		}
		lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
		var r result
		if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
			return result{}, fmt.Errorf("%s --trace %d: last line: %w", name, trace, err)
		}
		if !r.Correct {
			return result{}, fmt.Errorf("%s --trace %d: %d of %d operations failed", name, trace, r.Failed, r.Attempted)
		}
		return r, nil
	}
	var walls []float64
	for i := 0; i < n; i++ {
		r, err := runOnce(0)
		if err != nil {
			return err
		}
		walls = append(walls, r.Metrics["wall_s"].Value)
	}
	r, err := runOnce(1)
	if err != nil {
		return err
	}
	untraced, traced := median(walls), r.Metrics["trace.wall_s"].Value
	fmt.Fprintf(w, "%s: untraced wall_s median %.4f s over %d runs, traced %.4f s, tracing overhead %+.4f s (%+.1f%%)\n",
		name, untraced, n, traced, traced-untraced, 100*(traced-untraced)/untraced)
	return nil
}
