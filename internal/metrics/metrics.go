// Package metrics collects the quantities the paper's evaluation
// argues about: cluster utilisation ("better utilisation of the HPC
// resources"), per-side queue waits, OS-switch counts and durations,
// and job completion statistics. Integration is event-driven against
// the virtual clock, so results are exact rather than sampled.
package metrics

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/osid"
	"repro/internal/slab"
)

// JobRecord is one job's lifecycle summary as Jobs reports it: the
// recorder's row plus the job's rendered ID and application.
type JobRecord struct {
	ID  string // as Recorder.JobIDs renders it
	App string
	Lifecycle
}

// Lifecycle is the row the recorder keeps per job: fixed-size fields,
// with the scheduler's job number in place of the rendered ID and the
// application's index in the recorder's interned strings in place of
// its name, so a table of rows holds no pointer. Started
// is the *first* start: a rerunnable job that is requeued after node
// loss and served again keeps its original start, so Wait measures
// submission to first service and the job's span covers every attempt.
// (A previous revision overwrote Started on restart, which silently
// deflated the reported queue wait and shrank the job's span to the
// last attempt.)
type Lifecycle struct {
	CPUs      int
	Submitted time.Duration
	Started   time.Duration
	Ended     time.Duration
	// Restarts counts requeue-and-start cycles after the first start.
	Restarts int
	// Num is the job's number on its scheduler (PBS SeqNo, HPC job ID).
	Num       int32
	app       uint32 // index in the recorder's apps
	OS        osid.OS
	Completed bool

	phase     phase         // where the job is in its lifecycle
	lastStart time.Duration // start of the current attempt
	busy      time.Duration // accumulated actual service time across attempts
}

// phase is a job row's place in its lifecycle. One byte keeps the row
// at 72 bytes: a city run holds a million of them.
type phase uint8

const (
	queued   phase = iota // submitted, never started (Started == 0 is ambiguous at t=0)
	running               // busy-core integration in progress
	requeued              // started before, back in the queue
	ended                 // JobEnded seen; later lifecycle calls are ignored
)

// BusyTime returns the job's accumulated actual service time: the sum
// of its running windows across every attempt. For a never-interrupted
// job this equals Ended - Started; for a requeued one it counts each
// attempt's running window but not the queued gap between them.
func (j Lifecycle) BusyTime() time.Duration { return j.busy }

// Wait returns queue wait (first start - submit).
func (j Lifecycle) Wait() time.Duration { return j.Started - j.Submitted }

// SwitchRecord is one OS switch of one node.
type SwitchRecord struct {
	Node     string
	From, To osid.OS
	Started  time.Duration
	Finished time.Duration
	OK       bool
}

// Duration returns the switch latency.
func (s SwitchRecord) Duration() time.Duration { return s.Finished - s.Started }

// osSlots sizes the per-OS integration arrays: osid values are dense
// small integers (None, Linux, Windows).
const osSlots = int(osid.Windows) + 1

// Recorder accumulates cluster state over virtual time.
type Recorder struct {
	now func() time.Duration

	// JobIDs renders a job's ID from its side and scheduler job number,
	// for JobID and Jobs; nil renders the number alone. IDs are never
	// built per job, only when asked for.
	JobIDs func(os osid.OS, num int) string

	totalCores int

	// The integration state is indexed by osid value rather than keyed
	// by map: advance runs on every recorder event, so at city scale
	// (millions of events) per-event map iteration is pure overhead.
	last       time.Duration
	busyCores  [osSlots]int
	switching  int              // nodes mid-switch, as SetSwitching last set it
	busyCoreNS [osSlots]float64 // ∫ busy cores dt
	switchNS   float64          // ∫ nodes-switching dt

	// jobs holds one row per submission, indexed by the handle
	// JobSubmitted returned, so the lifecycle calls index rather than
	// hash; apps holds the application names the rows index. ended and
	// completed count the rows JobEnded closed, and those of them that
	// completed.
	jobs             []Lifecycle
	apps             slab.Strings
	ended, completed int
	switches         []SwitchRecord
	submitFails      int
}

// NewRecorder creates a recorder over a virtual clock. totalCores is
// the whole machine's core count (utilisation denominator).
func NewRecorder(now func() time.Duration, totalCores int) *Recorder {
	return &Recorder{now: now, totalCores: totalCores}
}

// advance integrates state up to the current instant. Events landing
// at the same instant — the common case inside a scheduling cascade —
// integrate a zero-width interval and return immediately.
func (r *Recorder) advance() {
	now := r.now()
	if now == r.last {
		return
	}
	dt := float64(now - r.last)
	if dt < 0 {
		panic("metrics: clock went backwards")
	}
	for os := 0; os < osSlots; os++ {
		r.busyCoreNS[os] += float64(r.busyCores[os]) * dt
	}
	r.switchNS += float64(r.switching) * dt
	r.last = now
}

// Reserve makes room for n more job records, so a run that knows its
// trace length grows the record table once.
func (r *Recorder) Reserve(n int) { r.jobs = slices.Grow(r.jobs, n) }

// JobSubmitted records a submission of job number num on the os side's
// scheduler and returns its handle: the row's index in submission
// order, which the lifecycle calls take. Every submission gets its own
// row; num only names the job in JobID and Jobs.
func (r *Recorder) JobSubmitted(num int, os osid.OS, app string, cpus int) int {
	r.advance()
	r.jobs = append(r.jobs, Lifecycle{Num: int32(num), OS: os, app: r.apps.Intern(app), CPUs: cpus, Submitted: r.now()})
	return len(r.jobs) - 1
}

// job resolves a handle; lifecycle events for a handle JobSubmitted
// never returned are ignored.
func (r *Recorder) job(h int) (*Lifecycle, bool) {
	if h < 0 || h >= len(r.jobs) {
		return nil, false
	}
	return &r.jobs[h], true
}

// JobID renders the ID of a handle's job ("" for an unknown handle).
func (r *Recorder) JobID(h int) string {
	if j, ok := r.job(h); ok {
		return r.id(j)
	}
	return ""
}

func (r *Recorder) id(j *Lifecycle) string {
	if r.JobIDs == nil {
		return strconv.Itoa(int(j.Num))
	}
	return r.JobIDs(j.OS, int(j.Num))
}

// JobStarted records a start and begins busy-core integration. A
// restart after a requeue (see JobInterrupted) resumes integration
// but keeps the first Started — first-start wait semantics.
func (r *Recorder) JobStarted(h int) {
	r.advance()
	j, ok := r.job(h)
	if !ok || j.phase == running || j.phase == ended {
		return
	}
	if j.phase == queued {
		j.Started = r.now()
	} else {
		j.Restarts++
	}
	j.phase = running
	j.lastStart = r.now()
	r.busyCores[j.OS] += j.CPUs
}

// JobInterrupted records a running job losing its slots and returning
// to the queue (a rerunnable job whose node was lost). Busy-core
// integration stops until the job is started again; without this the
// lost attempt would keep inflating utilisation while the job sat
// queued.
func (r *Recorder) JobInterrupted(h int) {
	r.advance()
	j, ok := r.job(h)
	if !ok || j.phase != running {
		return
	}
	j.phase = requeued
	j.busy += r.now() - j.lastStart
	r.busyCores[j.OS] -= j.CPUs
	if r.busyCores[j.OS] < 0 {
		r.busyCores[j.OS] = 0
	}
}

// JobEnded records a job's end and releases its busy cores. A job
// ends once: a second end of the same handle changes nothing.
func (r *Recorder) JobEnded(h int, completed bool) {
	r.advance()
	j, ok := r.job(h)
	if !ok || j.phase == ended {
		return
	}
	j.Ended = r.now()
	if j.phase == running {
		j.busy += r.now() - j.lastStart
		r.busyCores[j.OS] -= j.CPUs
		if r.busyCores[j.OS] < 0 {
			r.busyCores[j.OS] = 0
		}
	}
	j.phase = ended
	j.Completed = completed
	r.ended++
	if completed {
		r.completed++
	}
}

// Submitted counts the job rows: every submission JobSubmitted booked.
func (r *Recorder) Submitted() int { return len(r.jobs) }

// Unfinished counts the submitted jobs that have not ended yet.
func (r *Recorder) Unfinished() int { return len(r.jobs) - r.ended }

// Completed counts the jobs whose end reported them completed.
func (r *Recorder) Completed() int { return r.completed }

// SubmitFailed counts a submission the target scheduler rejected. The
// job never enters the lifecycle records, but the failure must not
// vanish from the run's books: Summary.SubmitFailures surfaces it.
func (r *Recorder) SubmitFailed() { r.submitFails++ }

// SetSwitching integrates up to now and then takes n as the number of
// nodes mid-switch: the cluster's census hands its count over on every
// change, for the switch-time integral.
func (r *Recorder) SetSwitching(n int) {
	r.advance()
	r.switching = n
}

// SwitchEnded books a switch that ends now; s carries what the
// cluster kept while it was open.
func (r *Recorder) SwitchEnded(s SwitchRecord) {
	s.Finished = r.now()
	r.switches = append(r.switches, s)
}

// durSum accumulates a sum of non-negative durations without the
// int64-nanosecond overflow a city-scale run hits: a million completed
// jobs waiting hours each total centuries of queue time, past what
// time.Duration can hold. Seconds and sub-second nanoseconds are
// carried separately, and the mean is computed with the remainder
// folded in before the final division, so for sums that do fit in a
// Duration the result is bit-identical to naive accumulation.
type durSum struct {
	sec int64 // whole seconds
	ns  int64 // sub-second remainder, always < count × 1e9
}

func (a *durSum) add(d time.Duration) {
	a.sec += int64(d / time.Second)
	a.ns += int64(d % time.Second)
}

// addN accumulates d × n (a per-part mean re-weighted by its count)
// without forming the overflowing product in nanoseconds.
func (a *durSum) addN(d time.Duration, n int) {
	a.sec += int64(d/time.Second) * int64(n)
	a.ns += int64(d%time.Second) * int64(n)
}

// mean divides by n (n > 0). Exact: sec*1e9+ns = (q*n+r)*1e9+ns with
// q = sec/n, r = sec%n, so the naive (sec*1e9+ns)/n equals
// q*1e9 + (r*1e9+ns)/n without ever forming the overflowing product.
func (a durSum) mean(n int) time.Duration {
	q, r := a.sec/int64(n), a.sec%int64(n)
	return time.Duration(q)*time.Second + time.Duration((r*int64(time.Second)+a.ns)/int64(n))
}

// Summary is the digested result of a run.
type Summary struct {
	Elapsed        time.Duration
	TotalCores     int
	TotalNodes     int     // SwitchOverhead denominator (Aggregate weights by it)
	Utilisation    float64 // busy core-time / (total cores × elapsed)
	UtilisationOS  map[osid.OS]float64
	MeanWait       map[osid.OS]time.Duration
	MaxWait        map[osid.OS]time.Duration
	JobsSubmitted  map[osid.OS]int
	JobsCompleted  map[osid.OS]int
	Switches       int
	SwitchesOK     int
	MeanSwitch     time.Duration
	MaxSwitch      time.Duration
	SwitchOverhead float64 // node-time spent switching / (nodes × elapsed)
	Makespan       time.Duration
	// SubmitFailures counts jobs the scheduler rejected at submission
	// — they never ran, and without this counter a drained run would
	// hide them entirely.
	SubmitFailures int
}

// Summarise integrates to now and digests.
func (r *Recorder) Summarise(totalNodes int) Summary {
	r.advance()
	elapsed := r.last
	s := Summary{
		Elapsed:        elapsed,
		TotalCores:     r.totalCores,
		TotalNodes:     totalNodes,
		UtilisationOS:  map[osid.OS]float64{},
		MeanWait:       map[osid.OS]time.Duration{},
		MaxWait:        map[osid.OS]time.Duration{},
		JobsSubmitted:  map[osid.OS]int{},
		JobsCompleted:  map[osid.OS]int{},
		SubmitFailures: r.submitFails,
	}
	if elapsed <= 0 || r.totalCores <= 0 {
		return s
	}
	denom := float64(r.totalCores) * float64(elapsed)
	var busyTotal float64
	for _, os := range []osid.OS{osid.Linux, osid.Windows} {
		busyTotal += r.busyCoreNS[os]
		s.UtilisationOS[os] = r.busyCoreNS[os] / denom
	}
	s.Utilisation = busyTotal / denom
	// Per-side tallies go into arrays and reach the maps once, with
	// the keys the maps would have got entry by entry: a side appears
	// once it has a submission, a completion or a nonzero wait.
	var submitted, completed [osSlots]int
	var waitSums [osSlots]durSum
	var maxWait [osSlots]time.Duration
	for i := range r.jobs {
		j := &r.jobs[i]
		submitted[j.OS]++
		if j.Completed {
			completed[j.OS]++
			waitSums[j.OS].add(j.Wait())
			maxWait[j.OS] = max(maxWait[j.OS], j.Wait())
			s.Makespan = max(s.Makespan, j.Ended)
		}
	}
	for os := range osid.OS(osSlots) {
		if submitted[os] > 0 {
			s.JobsSubmitted[os] = submitted[os]
		}
		if completed[os] > 0 {
			s.JobsCompleted[os] = completed[os]
			s.MeanWait[os] = waitSums[os].mean(completed[os])
		}
		if maxWait[os] > 0 {
			s.MaxWait[os] = maxWait[os]
		}
	}
	s.Switches = len(r.switches)
	var switchSum time.Duration
	for _, sw := range r.switches {
		if sw.OK {
			s.SwitchesOK++
		}
		d := sw.Duration()
		switchSum += d
		if d > s.MaxSwitch {
			s.MaxSwitch = d
		}
	}
	if len(r.switches) > 0 {
		s.MeanSwitch = switchSum / time.Duration(len(r.switches))
	}
	if totalNodes > 0 {
		s.SwitchOverhead = r.switchNS / (float64(totalNodes) * float64(elapsed))
	}
	return s
}

// Aggregate combines the summaries of several clusters sharing one
// virtual clock — grid members — into a fabric-wide digest.
// Utilisation is core-weighted (members share the same elapsed time on
// a common engine, so core-weighting equals busy-time weighting),
// switch overhead node-weighted (it is a per-node fraction), mean
// waits are weighted by completed jobs, mean switch time by switch
// count; maxima take the max, counters sum. One summary is returned
// as it is, sharing its maps: reweighting it would only lose bits
// (u×cores/cores need not give u back).
func Aggregate(parts []Summary) Summary {
	if len(parts) == 1 {
		return parts[0]
	}
	out := Summary{
		UtilisationOS: map[osid.OS]float64{},
		MeanWait:      map[osid.OS]time.Duration{},
		MaxWait:       map[osid.OS]time.Duration{},
		JobsSubmitted: map[osid.OS]int{},
		JobsCompleted: map[osid.OS]int{},
	}
	var busyCores, overheadNodes float64
	busyByOS := map[osid.OS]float64{}
	waitSums := map[osid.OS]*durSum{}
	waitCounts := map[osid.OS]int{}
	var switchSum time.Duration
	for _, p := range parts {
		out.TotalCores += p.TotalCores
		out.TotalNodes += p.TotalNodes
		if p.Elapsed > out.Elapsed {
			out.Elapsed = p.Elapsed
		}
		busyCores += p.Utilisation * float64(p.TotalCores)
		overheadNodes += p.SwitchOverhead * float64(p.TotalNodes)
		for _, os := range []osid.OS{osid.Linux, osid.Windows} {
			busyByOS[os] += p.UtilisationOS[os] * float64(p.TotalCores)
			out.JobsSubmitted[os] += p.JobsSubmitted[os]
			out.JobsCompleted[os] += p.JobsCompleted[os]
			sum := waitSums[os]
			if sum == nil {
				sum = &durSum{}
				waitSums[os] = sum
			}
			sum.addN(p.MeanWait[os], p.JobsCompleted[os])
			waitCounts[os] += p.JobsCompleted[os]
			if p.MaxWait[os] > out.MaxWait[os] {
				out.MaxWait[os] = p.MaxWait[os]
			}
		}
		out.Switches += p.Switches
		out.SwitchesOK += p.SwitchesOK
		switchSum += p.MeanSwitch * time.Duration(p.Switches)
		if p.MaxSwitch > out.MaxSwitch {
			out.MaxSwitch = p.MaxSwitch
		}
		if p.Makespan > out.Makespan {
			out.Makespan = p.Makespan
		}
		out.SubmitFailures += p.SubmitFailures
	}
	if out.TotalCores > 0 {
		out.Utilisation = busyCores / float64(out.TotalCores)
		for _, os := range []osid.OS{osid.Linux, osid.Windows} {
			out.UtilisationOS[os] = busyByOS[os] / float64(out.TotalCores)
		}
	}
	if out.TotalNodes > 0 {
		out.SwitchOverhead = overheadNodes / float64(out.TotalNodes)
	}
	for os, n := range waitCounts {
		if n > 0 {
			out.MeanWait[os] = waitSums[os].mean(n)
		}
	}
	if out.Switches > 0 {
		out.MeanSwitch = switchSum / time.Duration(out.Switches)
	}
	return out
}

// Jobs returns job records in submission order, IDs and applications
// rendered.
func (r *Recorder) Jobs() []JobRecord {
	out := make([]JobRecord, len(r.jobs))
	for i := range r.jobs {
		j := &r.jobs[i]
		out[i] = JobRecord{ID: r.id(j), App: r.apps.At(j.app), Lifecycle: *j}
	}
	return out
}

// Switches returns completed switch records.
func (r *Recorder) Switches() []SwitchRecord {
	return append([]SwitchRecord(nil), r.switches...)
}

// AppStat aggregates completed jobs of one application.
type AppStat struct {
	App          string
	OS           osid.OS
	Completed    int
	MeanWait     time.Duration
	CPUHours     float64 // cores × runtime, in hours
	LongestWait  time.Duration
	ShortestWait time.Duration
}

// AppStats digests completed jobs per application — the Table-I view
// of a run. Results are sorted by application name.
func (r *Recorder) AppStats() []AppStat {
	type key struct {
		app uint32
		os  osid.OS
	}
	type tally struct {
		AppStat
		waits durSum
	}
	acc := map[key]*tally{}
	for i := range r.jobs {
		j := &r.jobs[i]
		if !j.Completed {
			continue
		}
		st := acc[key{j.app, j.OS}]
		if st == nil {
			st = &tally{AppStat: AppStat{App: r.apps.At(j.app), OS: j.OS, ShortestWait: time.Duration(1<<62 - 1)}}
			acc[key{j.app, j.OS}] = st
		}
		st.Completed++
		w := j.Wait()
		st.waits.add(w)
		if w > st.LongestWait {
			st.LongestWait = w
		}
		if w < st.ShortestWait {
			st.ShortestWait = w
		}
		// Actual service time, not Ended-Started: a requeued job's
		// queue gap must not count as compute.
		st.CPUHours += float64(j.CPUs) * j.busy.Hours()
	}
	out := make([]AppStat, 0, len(acc))
	for _, st := range acc {
		st.MeanWait = st.waits.mean(st.Completed)
		out = append(out, st.AppStat)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].App != out[j].App {
			return out[i].App < out[j].App
		}
		return out[i].OS < out[j].OS
	})
	return out
}

// WaitPercentile computes the p-th percentile queue wait over
// completed jobs on a side (p in [0,100]).
func (r *Recorder) WaitPercentile(os osid.OS, p float64) time.Duration {
	var waits []time.Duration
	for i := range r.jobs {
		j := &r.jobs[i]
		if j.Completed && (os == osid.None || j.OS == os) {
			waits = append(waits, j.Wait())
		}
	}
	if len(waits) == 0 {
		return 0
	}
	sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
	idx := int(p / 100 * float64(len(waits)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(waits) {
		idx = len(waits) - 1
	}
	return waits[idx]
}

// Table renders rows as an aligned text table; the benchmark harness
// and CLI share it.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// Pct formats a ratio as a percentage string.
func Pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// Dur formats a duration at seconds resolution.
func Dur(d time.Duration) string { return d.Round(time.Second).String() }
