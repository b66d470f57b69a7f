package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// requestTimeout bounds one request on the client side; a request that
// exceeds it fails and the connection is redialled.
const requestTimeout = 10 * time.Second

// reqIDHeader carries the benchmark's request id to the in-process server
// of the trace run, so the span recorded there joins the client's.
const reqIDHeader = "X-Bench-Req"

// conn is one keep-alive HTTP/1.1 connection. Requests are written by
// hand and responses parsed by net/http: the generator shares two cores
// with the server it measures, so it should cost as little as it can.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	out  bytes.Buffer
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// roundTrip sends one request and reads the whole response. On a transport
// error the connection is dropped; the next call dials again.
func (c *conn) roundTrip(method, path, token, inm, reqID, body string) (int, http.Header, []byte, error) {
	if c.c == nil {
		nc, err := net.DialTimeout("tcp", c.addr, requestTimeout)
		if err != nil {
			return 0, nil, nil, err
		}
		c.c, c.br = nc, bufio.NewReaderSize(nc, 64<<10)
	}
	c.out.Reset()
	c.out.WriteString(method)
	c.out.WriteByte(' ')
	c.out.WriteString(path)
	c.out.WriteString(" HTTP/1.1\r\nHost: ")
	c.out.WriteString(c.addr)
	c.out.WriteString("\r\n")
	if token != "" {
		c.out.WriteString("Authorization: Bearer ")
		c.out.WriteString(token)
		c.out.WriteString("\r\n")
	}
	if inm != "" {
		c.out.WriteString("If-None-Match: ")
		c.out.WriteString(inm)
		c.out.WriteString("\r\n")
	}
	if reqID != "" {
		c.out.WriteString(reqIDHeader + ": ")
		c.out.WriteString(reqID)
		c.out.WriteString("\r\n")
	}
	if method == "POST" {
		c.out.WriteString("Content-Type: application/json\r\nContent-Length: ")
		c.out.WriteString(strconv.Itoa(len(body)))
		c.out.WriteString("\r\n")
	}
	c.out.WriteString("\r\n")
	c.out.WriteString(body)

	fail := func(err error) (int, http.Header, []byte, error) {
		c.close()
		return 0, nil, nil, err
	}
	if err := c.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return fail(err)
	}
	if _, err := c.c.Write(c.out.Bytes()); err != nil {
		return fail(err)
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return fail(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fail(err)
	}
	if resp.Close {
		c.close()
	}
	return resp.StatusCode, resp.Header, data, nil
}

// transport carries one request to a server and brings the whole response
// back: a keep-alive connection, or a direct call into a handler.
type transport interface {
	roundTrip(method, path, token, inm, reqID, body string) (int, http.Header, []byte, error)
	close()
}

// direct calls a handler in-process, no socket: what is left of a request
// when the network is taken away. The trace run prices allocations per
// request with it.
type direct struct{ h http.Handler }

func (d direct) close() {}

func (d direct) roundTrip(method, path, token, inm, reqID, body string) (int, http.Header, []byte, error) {
	req, err := http.NewRequest(method, "http://direct"+path, strings.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	if reqID != "" {
		req.Header.Set(reqIDHeader, reqID)
	}
	w := &directWriter{header: http.Header{}, status: http.StatusOK}
	d.h.ServeHTTP(w, req)
	return w.status, w.header, w.body.Bytes(), nil
}

type directWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *directWriter) Header() http.Header         { return w.header }
func (w *directWriter) WriteHeader(status int)      { w.status = status }
func (w *directWriter) Write(p []byte) (int, error) { return w.body.Write(p) }

// target is one server the script talks to and the sessions opened on it.
// With handler set, workers call it directly instead of dialling addr.
type target struct {
	addr    string
	handler http.Handler
	tokens  []string // one per bench user
}

// login opens a portal session for a bench user and returns its token.
func (c *conn) login(user string) (string, error) {
	body := fmt.Sprintf(`{"Login":%q,"Password":%q}`, user, benchPassword)
	status, _, data, err := c.roundTrip("POST", "/api/login", "", "", "", body)
	if err != nil {
		return "", fmt.Errorf("login %s: %w", user, err)
	}
	var out struct{ Token string }
	if status != http.StatusOK || json.Unmarshal(data, &out) != nil || out.Token == "" {
		return "", fmt.Errorf("login %s: status %d: %.120s", user, status, data)
	}
	return out.Token, nil
}

// login opens a session for every bench user over one connection.
func (t *target) login(pop *population) error {
	c := &conn{addr: t.addr}
	defer c.close()
	t.tokens = make([]string, len(pop.Users))
	for i, u := range pop.Users {
		token, err := c.login(u.Login)
		if err != nil {
			return err
		}
		t.tokens[i] = token
	}
	return nil
}

// chain is the run-time state of one browse stream of one user.
type chain struct {
	cursor   int64  // the next page's from; 0 = first page
	prevMax  int64  // highest id seen since the chain last started over
	lastPath string // the page fetched last, what a revalidation re-asks
	lastTag  string
	// lastFrom and lastSeen are cursor and prevMax as they were when
	// lastPath was requested: a revalidation that finds the page changed
	// gets the same page again and is checked from the same position.
	lastFrom, lastSeen int64
}

// acked is one write the server acknowledged with 201.
type acked struct {
	Op   opKind
	ID   int64
	Name string
}

// recorder collects what one worker measured in one phase of a run
// (warm-up, open-loop window, closed-loop segment); the workers' recorders
// of a phase are merged afterwards.
type recorder struct {
	attempted, completed, failed int
	byClass                      [numClasses]sample // ms from due time
	byOp                         [numOps]sample     // us, send to last byte
	lag                          sample             // ms the dispatch ran behind
	late                         int
	cond, notModified            int
	readBytes                    int64
	refused                      int
	reqBytes                     int64    // bodies of acked writes
	bySlice                      []sample // ms from due time, per slice of the open-loop window
	acks                         []acked
	msgs                         []string
}

// all returns the latencies of every class in one sample.
func (r *recorder) all() *sample {
	s := &sample{}
	for c := range r.byClass {
		s.v = append(s.v, r.byClass[c].v...)
	}
	return s
}

const maxFailureMsgs = 10

func (r *recorder) fail(op opKind, format string, args ...any) {
	r.failed++
	if len(r.msgs) < maxFailureMsgs {
		r.msgs = append(r.msgs, opNames[op]+": "+fmt.Sprintf(format, args...))
	}
}

type tagKey struct {
	user int
	path string
}

// worker drives one connection per target with the requests of the users
// it owns.
type worker struct {
	id      int
	pop     *population
	targets []*target
	conns   []transport
	replica bool // reads go to targets[1]
	chains  map[[2]int]*chain
	tags    map[tagKey]string // last validator per user and path, stats ops
	asOf    []uint64          // per target: highest version seen
	rec     *recorder
	tr      *traceRec // nil outside the trace run: requests carry no id, no span is kept
	nextID  uint64
}

func newWorker(id int, pop *population, targets []*target, replica bool, tr *traceRec) *worker {
	w := &worker{
		id: id, pop: pop, targets: targets, replica: replica, tr: tr,
		chains: make(map[[2]int]*chain), tags: make(map[tagKey]string),
		asOf: make([]uint64, len(targets)), rec: &recorder{},
		nextID: uint64(id) << 40,
	}
	for _, t := range targets {
		if t.handler != nil {
			w.conns = append(w.conns, direct{t.handler})
		} else {
			w.conns = append(w.conns, &conn{addr: t.addr})
		}
	}
	return w
}

func (w *worker) close() {
	for _, c := range w.conns {
		c.close()
	}
}

// sleeper blocks one goroutine until a point in time, on a timerfd read
// through the runtime's network poller. The goroutine parks exactly as it
// does while it waits for a response, so a sleeping worker holds neither a
// P nor a thread: with a blocking nanosleep it held the generator's P until
// sysmon took it back, and the other worker's response waited for that. The
// runtime's own timers are no substitute: an otherwise idle process sleeps
// in epoll_wait, whose timeout is rounded up to a millisecond.
type sleeper struct {
	fd uintptr // kept beside f: File.Fd would put the descriptor in blocking mode
	f  *os.File
}

func newSleeper() (*sleeper, error) {
	const clockMonotonic, nonblockCloexec = 1, syscall.O_NONBLOCK | syscall.O_CLOEXEC
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, nonblockCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &sleeper{fd, os.NewFile(fd, "timerfd")}, nil
}

func (s *sleeper) close() { s.f.Close() }

// until blocks until t; a t already past returns at once.
func (s *sleeper) until(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	// struct itimerspec: interval (none), then the time to the one expiry.
	spec := [2]syscall.Timespec{1: syscall.NsecToTimespec(int64(d))}
	_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	if errno != 0 {
		panic(fmt.Errorf("timerfd_settime: %w", errno))
	}
	var expirations [8]byte
	if _, err := s.f.Read(expirations[:]); err != nil {
		panic(fmt.Errorf("timerfd read: %w", err))
	}
}

// runOpen dispatches reqs on their schedule. Latency runs from each
// request's due time, so a stall is charged to every request it delays.
// With slice > 0 a request due at from + i*slice or later lands in the
// i-th slice sample.
func (w *worker) runOpen(sl *sleeper, reqs []request, t0 time.Time, from, slice time.Duration) {
	for i := range reqs {
		rq := &reqs[i]
		due := t0.Add(rq.Due)
		free := time.Now()
		sl.until(due)
		si := -1
		if slice > 0 {
			si = int((rq.Due - from) / slice)
		}
		w.exec(rq, due, free, si)
	}
}

// runClosed sends requests back to back until the deadline and returns
// how many valid responses came back.
func (w *worker) runClosed(s *scripter, deadline time.Time) int {
	before := w.rec.completed
	for time.Now().Before(deadline) {
		rq := s.next()
		w.exec(&rq, time.Time{}, time.Time{}, -1)
	}
	return w.rec.completed - before
}

// exec resolves a scripted request against the chain state, sends it,
// validates the response and records the outcome. due is zero in closed
// loops, where latency runs from the send. slice is the slice of the
// window the request belongs to, or -1.
func (w *worker) exec(rq *request, due, free time.Time, slice int) {
	u := &w.pop.Users[rq.User]
	op, method, path, inm, body := rq.Op, "GET", rq.Path, "", rq.Body
	ti := 0
	if w.replica && op.class() == classRead {
		ti = 1
	}
	var ch *chain
	switch op {
	case opBrowsePage, opBrowseRevalidate:
		key := [2]int{rq.User, rq.Stream}
		if ch = w.chains[key]; ch == nil {
			ch = &chain{}
			w.chains[key] = ch
		}
		if op == opBrowseRevalidate && ch.lastPath == "" {
			op = opBrowsePage // nothing fetched yet on this chain
		}
		if op == opBrowseRevalidate {
			path, inm = ch.lastPath, ch.lastTag
		} else {
			st := u.Streams[rq.Stream]
			path = "/api/browse/" + st.Kind + "?limit=" + strconv.Itoa(pageLimit)
			if st.Filter != "" {
				path += "&" + st.Filter
			}
			if ch.cursor > 0 {
				path += "&from=" + strconv.FormatInt(ch.cursor, 10)
			}
		}
	case opStats, opStatsGroup:
		if rq.Cond {
			inm = w.tags[tagKey{rq.User, path}]
		}
	case opCreateSample, opCreateExtract, opCreateAnnotation:
		method = "POST"
	}

	var reqID string
	if w.tr != nil {
		w.nextID++
		reqID = strconv.FormatUint(w.nextID, 10)
	}
	start := time.Now()
	status, hdr, data, err := w.conns[ti].roundTrip(method, path, w.targets[ti].tokens[rq.User], inm, reqID, body)
	end := time.Now()
	if w.tr != nil {
		w.tr.clientSpan(w.nextID, op, start, end)
	}

	rec := w.rec
	rec.attempted++
	cl := op.class()
	from := start
	if !due.IsZero() {
		from = due
		rec.lag.add(ms(start.Sub(maxTime(due, free))))
	}
	lat := end.Sub(from)
	if err != nil {
		rec.fail(op, "transport: %v", err)
		rec.late++
		return
	}
	if verr := w.validate(rec, rq, op, ti, ch, path, inm, status, hdr, data); verr != nil {
		if status == http.StatusServiceUnavailable {
			rec.refused++
		}
		rec.fail(op, "%s %s: status %d: %v", method, path, status, verr)
		rec.late++
		return
	}
	rec.completed++
	rec.byClass[cl].add(ms(lat))
	rec.byOp[op].add(us(end.Sub(start)))
	if lat > lateLimit[cl] {
		rec.late++
	}
	if slice >= 0 {
		for len(rec.bySlice) <= slice {
			rec.bySlice = append(rec.bySlice, sample{})
		}
		rec.bySlice[slice].add(ms(lat))
	}
	if cl == classRead {
		rec.readBytes += int64(len(data))
	}
	if inm != "" {
		rec.cond++
		if status == http.StatusNotModified {
			rec.notModified++
		}
	}
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// validate applies the op's status set and body checks, advances the
// chain, and enforces that the version a connection observes on a server
// never goes back.
func (w *worker) validate(rec *recorder, rq *request, op opKind, ti int, ch *chain,
	path, inm string, status int, hdr http.Header, data []byte) error {
	seen := uint64(0)
	if seq, ok := tagSeq(hdr.Get("ETag")); ok {
		seen = seq
	}
	switch op {
	case opBrowsePage, opBrowseRevalidate, opStats, opStatsGroup:
		if status == http.StatusNotModified {
			if err := validateNotModified(inm, hdr, data); err != nil {
				return err
			}
			break
		}
		if status != http.StatusOK {
			return fmt.Errorf("want 200 or 304: %.120s", data)
		}
		tag := hdr.Get("ETag")
		if tag == "" {
			return fmt.Errorf("200 without ETag")
		}
		switch op {
		case opStats:
			if err := validateStats(data); err != nil {
				return err
			}
			w.tags[tagKey{rq.User, path}] = tag
		case opStatsGroup:
			asOf, err := validateStatsGroup(path, data)
			if err != nil {
				return err
			}
			if asOf != seen {
				return fmt.Errorf("asOf %d under tag %s", asOf, tag)
			}
			w.tags[tagKey{rq.User, path}] = tag
		default:
			cursor, prevMax := ch.cursor, ch.prevMax
			if op == opBrowseRevalidate {
				cursor, prevMax = ch.lastFrom, ch.lastSeen
			}
			info, err := validatePage(data, cursor, prevMax, pageLimit)
			if err != nil {
				return err
			}
			if info.AsOf != seen {
				return fmt.Errorf("asOf %d under tag %s", info.AsOf, tag)
			}
			if op == opBrowsePage {
				ch.lastPath, ch.lastFrom, ch.lastSeen = path, ch.cursor, ch.prevMax
				ch.prevMax = max(ch.prevMax, info.MaxID)
				ch.cursor = info.Next
				if info.Next == 0 {
					ch.prevMax = 0
				}
			}
			ch.lastTag = tag
		}
	case opObject:
		if status != http.StatusOK {
			return fmt.Errorf("want 200: %.120s", data)
		}
		if err := validateObject(path, data); err != nil {
			return err
		}
	case opTasks:
		if status != http.StatusOK {
			return fmt.Errorf("want 200: %.120s", data)
		}
		if err := validateTasks(data); err != nil {
			return err
		}
	case opSearch:
		if status != http.StatusOK {
			return fmt.Errorf("want 200: %.120s", data)
		}
		if err := validateSearch(data); err != nil {
			return err
		}
	case opCreateSample, opCreateExtract, opCreateAnnotation:
		if status != http.StatusCreated {
			return fmt.Errorf("want 201: %.120s", data)
		}
		var id int64
		var err error
		if op == opCreateAnnotation {
			id, err = validateAnnotation(data, rq.Name)
		} else {
			id, err = validateCreated(data)
		}
		if err != nil {
			return err
		}
		rec.acks = append(rec.acks, acked{Op: op, ID: id, Name: rq.Name})
		rec.reqBytes += int64(len(rq.Body))
	}
	if seen != 0 {
		if seen < w.asOf[ti] {
			return fmt.Errorf("version went back on this connection: %d after %d", seen, w.asOf[ti])
		}
		w.asOf[ti] = seen
	}
	return nil
}
