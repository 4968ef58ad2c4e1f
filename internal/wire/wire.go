// Package wire implements a small line-oriented TCP protocol through
// which any core.Executor — a single simulated server, a non-diverse
// replication group, or the diverse middleware — can serve network
// clients. This is the "middleware for data replication with diverse SQL
// servers" deployment shape the paper's conclusions call for.
//
// When the executor supports sessions (core.SessionExecutor — every
// endpoint in this module does), each TCP connection gets its own
// session: transactions are scoped to the connection, concurrent
// connections execute in parallel, and a dropped connection rolls back
// only its own open transaction.
//
// Protocol (text, one request per line):
//
//	C: EXEC <sql>\n            (the SQL must not contain newlines)
//	S: OK <ncols> <nrows> <latency_us> <affected>\n
//	   <tab-separated column names>\n     (only when ncols > 0)
//	   <tab-separated row values>\n x nrows
//	   .\n
//	or
//	S: ERR <message>\n
//
// The fourth OK field is the statement's affected-row count
// (INSERT/UPDATE/DELETE). Older clients parse the first three fields
// and ignore the rest; the current client tolerates three-field heads
// from older servers.
//
// Prepared statements (per session, so statement scope = transaction
// scope, as on a real server):
//
//	C: PREPARE <name> <sql>\n  (sql may contain ? or $n placeholders)
//	S: STMT <name> <nparams>\n  or  ERR <message>\n
//
//	C: BIND <name> <arg>\t<arg>...\n   (typed args, see below; none for
//	                                    a zero-parameter statement)
//	S: same responses as EXEC (the statement executes server-side with
//	   the arguments bound — there is no client-side interpolation)
//
//	C: CLOSE <name>\n
//	S: OK 0 0 0 0\n.\n
//
// # Tagged frames and pipelining
//
// Any request line may carry a tag prefix "@<tag> "; the first line of
// its response is then prefixed "@<tag> " verbatim. Tags let a client
// send many requests without waiting (pipelining) and match responses
// that complete out of order.
//
//	C: BATCH <n>\n             (the next n lines are one pipelined batch)
//	C: @1 EXEC <sql>\n
//	C: @2 EXEC <sql>\n ...
//	S: @1 OK ...\n...\n.\n @2 OK ...   (per-session order; tags identify)
//
// BATCH itself produces no response line; it groups n requests so the
// server reads and dispatches them back to back. Pipelining works
// without BATCH too — the envelope exists so one client flush carries
// one burst end to end.
//
// # Session multiplexing
//
// By default a connection is one session (its transaction scope; a
// dropped connection rolls back only its own open transaction). A
// client can open further sessions over the same TCP connection and
// route frames to them with a "#<sid> " prefix (after the tag, if any):
//
//	C: SESSION\n               S: SESS <sid>\n
//	C: #<sid> EXEC <sql>\n     S: the session's response
//	C: DETACH <sid>\n          S: OK 0 0 0 0\n.\n  (rolls back, releases)
//
// Each session executes its frames in order on its own worker, so
// sessions of one connection proceed concurrently — fewer TCP
// connections carry the same number of independent transaction scopes.
// Closing the connection closes every session it opened, rolling back
// exactly their open transactions.
//
// Introspection (armed with ServeMetrics / ServeShards):
//
//	C: METRICS\n
//	S: MET <nbytes>\n<nbytes bytes of Prometheus exposition>.\n
//	or ERR metrics not enabled\n
//
//	C: SHARDS\n
//	S: SHARDS <nbytes>\n<nbytes bytes of shard status text>.\n
//	or ERR not a sharded deployment\n
//
// BIND arguments use the types.Value kind-tagged encoding ("I:42",
// "F:1.5", "S:text", "B:1", "D:2026-01-01", "N" for NULL; payload tabs
// and newlines are backslash-escaped), tab-separated.
//
// NULL result cells are transmitted as the literal \N.
package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"divsql/internal/core"
	"divsql/internal/engine"
	"divsql/internal/obs"
	"divsql/internal/sql/types"
)

// nullToken is the wire representation of SQL NULL.
const nullToken = `\N`

// cellFlattener removes the result framing characters from cell text.
var cellFlattener = strings.NewReplacer("\t", " ", "\n", " ", "\r", " ")

// Server serves an Executor over TCP.
type Server struct {
	exec    core.Executor
	metrics *wireMetrics

	mu         sync.Mutex
	listener   net.Listener
	conns      map[net.Conn]bool
	wg         sync.WaitGroup
	closed     bool
	metricsReg *obs.Registry // answers the METRICS frame; nil = disabled
	shardsFn   func() string // answers the SHARDS frame; nil = disabled
}

// ServeShards arms the SHARDS introspection frame with a status
// renderer (a sharded deployment's per-shard replica/quarantine state).
// Call before Listen; nil (the default) answers SHARDS with an error.
func (s *Server) ServeShards(fn func() string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shardsFn = fn
}

// shardsFunc reads the armed shard-status renderer.
func (s *Server) shardsFunc() func() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shardsFn
}

// NewServer wraps an executor.
func NewServer(exec core.Executor) *Server {
	return &Server{exec: exec, conns: make(map[net.Conn]bool), metrics: newWireMetrics()}
}

// Listen starts accepting connections on addr ("host:port"; port 0
// picks a free port). It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("wire listen: %w", err)
	}
	s.mu.Lock()
	s.listener = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// wireConn is one TCP connection's server-side state: a table of
// multiplexed sessions (sid 0 is the connection's implicit root
// session) and the write mutex serializing their responses onto the
// socket. Each session executes its frames in order on its own worker
// goroutine; responses are rendered to a private buffer and written
// atomically, so interleaved sessions never interleave bytes.
type wireConn struct {
	s    *Server
	conn countingConn

	wmu sync.Mutex // serializes whole-response writes

	sessions map[int]*wireSession // touched only by the reader goroutine
	nextSID  int
	wg       sync.WaitGroup
}

// wireSession is one multiplexed session: its executor (a core.Session
// when the endpoint supports them), its prepared-statement table and
// its frame queue.
type wireSession struct {
	id    int
	exec  core.Executor
	sess  core.Session // closed on teardown; nil for sessionless endpoints
	stmts map[string]core.Statement
	ch    chan wireReq
}

// wireReq is one queued frame.
type wireReq struct {
	tag     string // includes the leading '@'; "" when untagged
	frame   string // EXEC, PREPARE, BIND, CLOSE
	payload string
	start   time.Time
	detach  bool // close the session after replying
}

// newSession opens one multiplexed session and starts its worker.
func (wc *wireConn) newSession() *wireSession {
	ws := &wireSession{
		id:    wc.nextSID,
		exec:  wc.s.exec,
		stmts: make(map[string]core.Statement),
		ch:    make(chan wireReq, 64),
	}
	wc.nextSID++
	if se, ok := wc.s.exec.(core.SessionExecutor); ok {
		ws.sess = se.OpenSession()
		ws.exec = ws.sess
	}
	wc.sessions[ws.id] = ws
	wc.wg.Add(1)
	go wc.worker(ws)
	return ws
}

// write sends one complete response atomically.
func (wc *wireConn) write(b []byte) {
	wc.wmu.Lock()
	_, _ = wc.conn.Write(b)
	wc.wmu.Unlock()
}

// writeTagged sends one complete response, prefixing the tag onto its
// first line.
func (wc *wireConn) writeTagged(tag, resp string) {
	if tag != "" {
		resp = tag + " " + resp
	}
	wc.write([]byte(resp))
}

// worker drains one session's frame queue. Exiting — channel closed on
// connection teardown, or a DETACH frame — rolls back the session's
// open transaction and releases its prepared statements, touching no
// other session.
func (wc *wireConn) worker(ws *wireSession) {
	defer wc.wg.Done()
	defer func() {
		for _, st := range ws.stmts {
			_ = st.Close()
		}
		if ws.sess != nil {
			_ = ws.sess.Close()
		}
	}()
	var buf bytes.Buffer
	for req := range ws.ch {
		buf.Reset()
		if req.tag != "" {
			buf.WriteString(req.tag)
			buf.WriteByte(' ')
		}
		frame := req.frame
		switch {
		case req.detach:
			frame = "DETACH"
			buf.WriteString("OK 0 0 0 0\n.\n")
		case req.frame == "EXEC":
			handleExec(ws.exec, &buf, req.payload)
		case req.frame == "PREPARE":
			handlePrepare(ws.exec, &buf, ws.stmts, req.payload)
		case req.frame == "BIND":
			handleBind(&buf, ws.stmts, req.payload)
		case req.frame == "CLOSE":
			name := strings.TrimSpace(req.payload)
			if st, ok := ws.stmts[name]; ok {
				_ = st.Close()
				delete(ws.stmts, name)
			}
			buf.WriteString("OK 0 0 0 0\n.\n")
		}
		// Record before writing: once the client holds the response, a
		// METRICS frame it sends next must already count this request.
		// The latency window is read to response ready: queueing, execution
		// (adjudication included on a diverse endpoint) and response
		// serialization.
		wc.s.metrics.record(frame, time.Since(req.start))
		wc.write(buf.Bytes())
		if req.detach {
			return
		}
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	s.metrics.connsTotal.Inc()
	s.metrics.connsOpen.Add(1)
	defer func() {
		s.metrics.connsOpen.Add(-1)
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	wc := &wireConn{
		s:        s,
		conn:     countingConn{Conn: conn, m: s.metrics},
		sessions: make(map[int]*wireSession),
	}
	// sid 0 is the connection's root session: untagged unprefixed frames
	// behave exactly as before multiplexing existed.
	wc.newSession()
	// Teardown closes every session the connection opened — each worker
	// drains its queue, then rolls back its own open transaction. A
	// connection dropped mid-batch therefore aborts exactly its own
	// sessions' transactions.
	defer func() {
		for _, ws := range wc.sessions {
			close(ws.ch)
		}
		wc.wg.Wait()
	}()
	rd := bufio.NewReader(wc.conn)
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			return
		}
		line = strings.TrimRight(line, "\r\n")
		if n, ok := batchHeader(line); ok {
			s.metrics.record("BATCH", 0)
			for i := 0; i < n; i++ {
				bline, err := rd.ReadString('\n')
				if err != nil {
					return
				}
				if !wc.dispatch(strings.TrimRight(bline, "\r\n")) {
					return
				}
			}
			continue
		}
		if !wc.dispatch(line) {
			return
		}
	}
}

// batchHeader parses a "BATCH <n>" envelope line.
func batchHeader(line string) (int, bool) {
	rest, ok := strings.CutPrefix(line, "BATCH ")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(strings.TrimSpace(rest))
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// dispatch services one request line: session frames are queued to
// their session's worker, control frames are answered inline. It
// returns false on QUIT.
func (wc *wireConn) dispatch(line string) bool {
	start := time.Now()
	var tag string
	if strings.HasPrefix(line, "@") {
		i := strings.IndexByte(line, ' ')
		if i <= 1 {
			wc.write([]byte("ERR malformed tag prefix\n"))
			return true
		}
		tag, line = line[:i], line[i+1:]
	}
	ws := wc.sessions[0]
	if strings.HasPrefix(line, "#") {
		i := strings.IndexByte(line, ' ')
		if i <= 1 {
			wc.writeTagged(tag, "ERR malformed session prefix\n")
			return true
		}
		sid, err := strconv.Atoi(line[1:i])
		target, ok := wc.sessions[sid]
		if err != nil || !ok {
			wc.writeTagged(tag, fmt.Sprintf("ERR unknown session %s\n", line[1:i]))
			return true
		}
		ws, line = target, line[i+1:]
	}
	switch {
	case strings.HasPrefix(line, "EXEC "):
		ws.ch <- wireReq{tag: tag, frame: "EXEC", payload: line[len("EXEC "):], start: start}
	case strings.HasPrefix(line, "PREPARE "):
		ws.ch <- wireReq{tag: tag, frame: "PREPARE", payload: line[len("PREPARE "):], start: start}
	case strings.HasPrefix(line, "BIND "):
		ws.ch <- wireReq{tag: tag, frame: "BIND", payload: line[len("BIND "):], start: start}
	case strings.HasPrefix(line, "CLOSE "):
		ws.ch <- wireReq{tag: tag, frame: "CLOSE", payload: line[len("CLOSE "):], start: start}
	case line == "SESSION":
		ns := wc.newSession()
		wc.writeTagged(tag, fmt.Sprintf("SESS %d\n", ns.id))
		wc.s.metrics.record("SESSION", time.Since(start))
	case strings.HasPrefix(line, "DETACH "):
		sidTxt := strings.TrimSpace(line[len("DETACH "):])
		sid, err := strconv.Atoi(sidTxt)
		target, ok := wc.sessions[sid]
		switch {
		case err != nil || !ok:
			wc.writeTagged(tag, fmt.Sprintf("ERR unknown session %s\n", sidTxt))
		case sid == 0:
			wc.writeTagged(tag, "ERR cannot detach the root session\n")
		default:
			// Remove first so no further frame can route to it, then let
			// the worker finish its queue and answer the DETACH itself.
			delete(wc.sessions, sid)
			target.ch <- wireReq{tag: tag, start: start, detach: true}
		}
	case line == "PING":
		wc.writeTagged(tag, "OK 0 0 0 0\n.\n")
		wc.s.metrics.record("PING", time.Since(start))
	case line == "METRICS":
		if reg := wc.s.metricsRegistry(); reg != nil {
			doc := reg.Render()
			wc.writeTagged(tag, fmt.Sprintf("MET %d\n%s.\n", len(doc), doc))
		} else {
			wc.writeTagged(tag, "ERR metrics not enabled\n")
		}
		wc.s.metrics.record("METRICS", time.Since(start))
	case line == "SHARDS":
		if fn := wc.s.shardsFunc(); fn != nil {
			doc := fn()
			wc.writeTagged(tag, fmt.Sprintf("SHARDS %d\n%s.\n", len(doc), doc))
		} else {
			wc.writeTagged(tag, "ERR not a sharded deployment\n")
		}
		wc.s.metrics.record("SHARDS", time.Since(start))
	case line == "QUIT":
		wc.s.metrics.record("QUIT", time.Since(start))
		return false
	default:
		wc.writeTagged(tag, "ERR unknown command\n")
	}
	return true
}

// handlePrepare services one PREPARE frame: "<name> <sql>".
func handlePrepare(exec core.Executor, wr io.Writer, stmts map[string]core.Statement, req string) {
	name, sql, ok := strings.Cut(req, " ")
	if !ok || name == "" || strings.TrimSpace(sql) == "" {
		fmt.Fprint(wr, "ERR malformed PREPARE (want: PREPARE <name> <sql>)\n")
		return
	}
	pe, can := exec.(core.PreparedExecutor)
	if !can {
		fmt.Fprint(wr, "ERR endpoint does not support prepared statements\n")
		return
	}
	st, err := pe.Prepare(sql)
	if err != nil {
		fmt.Fprintf(wr, "ERR %s\n", strings.ReplaceAll(err.Error(), "\n", " "))
		return
	}
	if old, dup := stmts[name]; dup {
		_ = old.Close() // re-preparing a name replaces the statement
	}
	stmts[name] = st
	fmt.Fprintf(wr, "STMT %s %d\n", name, st.NumParams())
}

// handleBind services one BIND frame: "<name>[ <arg>\t<arg>...]" — it
// executes the named prepared statement with the decoded typed
// arguments and answers exactly like EXEC.
func handleBind(wr io.Writer, stmts map[string]core.Statement, req string) {
	name, rest, _ := strings.Cut(req, " ")
	st, ok := stmts[strings.TrimSpace(name)]
	if !ok {
		fmt.Fprintf(wr, "ERR unknown prepared statement %q\n", strings.TrimSpace(name))
		return
	}
	var args []types.Value
	if rest = strings.TrimRight(rest, " "); rest != "" {
		for _, tok := range strings.Split(rest, "\t") {
			v, err := types.DecodeValue(tok)
			if err != nil {
				fmt.Fprintf(wr, "ERR %s\n", err.Error())
				return
			}
			args = append(args, v)
		}
	}
	res, lat, err := st.Exec(args...)
	writeResult(wr, res, lat, err)
}

func handleExec(exec core.Executor, wr io.Writer, sql string) {
	res, lat, err := exec.Exec(sql)
	writeResult(wr, res, lat, err)
}

// writeResult renders one statement outcome in the EXEC response format.
func writeResult(wr io.Writer, res *engine.Result, lat time.Duration, err error) {
	if err != nil {
		fmt.Fprintf(wr, "ERR %s\n", strings.ReplaceAll(err.Error(), "\n", " "))
		return
	}
	ncols, nrows := 0, 0
	var affected int64
	if res != nil {
		affected = res.Affected
		if res.Kind == engine.ResultRows {
			ncols, nrows = len(res.Columns), len(res.Rows)
		}
	}
	fmt.Fprintf(wr, "OK %d %d %d %d\n", ncols, nrows, lat.Microseconds(), affected)
	if ncols > 0 {
		fmt.Fprintln(wr, strings.Join(res.Columns, "\t"))
		for _, row := range res.Rows {
			cells := make([]string, len(row))
			for i, v := range row {
				if v.IsNull() {
					cells[i] = nullToken
				} else {
					// Cells are framed by tabs and newlines; both flatten
					// to spaces (typed BIND arguments can smuggle them into
					// stored data, which inline SQL never could).
					cells[i] = cellFlattener.Replace(v.String())
				}
			}
			fmt.Fprintln(wr, strings.Join(cells, "\t"))
		}
	}
	fmt.Fprintln(wr, ".")
}

// Close stops the listener, closes open connections and waits for the
// connection goroutines to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.listener
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// ---------------------------------------------------------------------------
// Client

// Result is a decoded wire response.
type Result struct {
	Columns []string
	Rows    [][]types.Value
	Latency time.Duration
	// Affected is the statement's affected-row count
	// (INSERT/UPDATE/DELETE; zero from pre-affected servers).
	Affected int64
}

// Client is a connection to a wire server.
type Client struct {
	mu     sync.Mutex
	conn   net.Conn
	rd     *bufio.Reader
	nextID int
}

// Dial connects to a wire server.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("wire dial: %w", err)
	}
	return &Client{conn: conn, rd: bufio.NewReader(conn)}, nil
}

// Exec sends one statement and decodes the response. SQL containing
// newlines is flattened to spaces.
func (c *Client) Exec(sql string) (*Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	flat := strings.ReplaceAll(strings.ReplaceAll(sql, "\r", " "), "\n", " ")
	if _, err := fmt.Fprintf(c.conn, "EXEC %s\n", flat); err != nil {
		return nil, fmt.Errorf("wire send: %w", err)
	}
	return c.readResult()
}

// ExecBatch pipelines a burst of statements: one BATCH envelope carries
// every tagged EXEC in a single write, and the responses stream back
// without a per-statement round trip. Results and errors are
// index-aligned with sqls. The statements run in order on the
// connection's root session — the batch is a pipeline, not a
// transaction; a failed statement does not stop the ones after it.
func (c *Client) ExecBatch(sqls []string) ([]*Result, []error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	results := make([]*Result, len(sqls))
	errs := make([]error, len(sqls))
	if len(sqls) == 0 {
		return results, errs
	}
	var b strings.Builder
	fmt.Fprintf(&b, "BATCH %d\n", len(sqls))
	for i, sql := range sqls {
		flat := strings.ReplaceAll(strings.ReplaceAll(sql, "\r", " "), "\n", " ")
		fmt.Fprintf(&b, "@%d EXEC %s\n", i+1, flat)
	}
	if _, err := io.WriteString(c.conn, b.String()); err != nil {
		for i := range errs {
			errs[i] = fmt.Errorf("wire send: %w", err)
		}
		return results, errs
	}
	for range sqls {
		tag, res, err := c.readTaggedResult()
		idx, convErr := strconv.Atoi(strings.TrimPrefix(tag, "@"))
		if convErr != nil || idx < 1 || idx > len(sqls) {
			// A response we cannot match poisons the stream; fail the
			// remaining slots and stop reading.
			for i := range errs {
				if results[i] == nil && errs[i] == nil {
					errs[i] = fmt.Errorf("wire: unmatched batch response tag %q", tag)
				}
			}
			return results, errs
		}
		results[idx-1], errs[idx-1] = res, err
	}
	return results, errs
}

// Shards sends a SHARDS frame and returns the server's shard status
// text. It fails when the deployment is not sharded (ServeShards was
// not called).
func (c *Client) Shards() (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := fmt.Fprint(c.conn, "SHARDS\n"); err != nil {
		return "", fmt.Errorf("wire send: %w", err)
	}
	return c.readSizedDoc("SHARDS")
}

// readSizedDoc decodes a "<kind> <nbytes>\npayload.\n" response.
// Caller holds c.mu.
func (c *Client) readSizedDoc(kind string) (string, error) {
	head, err := c.rd.ReadString('\n')
	if err != nil {
		return "", fmt.Errorf("wire recv: %w", err)
	}
	head = strings.TrimRight(head, "\r\n")
	if strings.HasPrefix(head, "ERR ") {
		return "", errors.New(strings.TrimPrefix(head, "ERR "))
	}
	var n int
	if _, err := fmt.Sscanf(head, kind+" %d", &n); err != nil {
		return "", fmt.Errorf("wire: malformed %s response %q", kind, head)
	}
	doc := make([]byte, n)
	if _, err := io.ReadFull(c.rd, doc); err != nil {
		return "", fmt.Errorf("wire recv: %w", err)
	}
	term, err := c.rd.ReadString('\n')
	if err != nil {
		return "", err
	}
	if strings.TrimRight(term, "\r\n") != "." {
		return "", fmt.Errorf("wire: missing terminator, got %q", term)
	}
	return string(doc), nil
}

// readResult decodes one EXEC/BIND-style response. Caller holds c.mu.
func (c *Client) readResult() (*Result, error) {
	_, res, err := c.readTaggedResult()
	return res, err
}

// readTaggedResult decodes one EXEC/BIND-style response, stripping and
// returning an optional "@<tag> " prefix. Caller holds c.mu.
func (c *Client) readTaggedResult() (string, *Result, error) {
	head, err := c.rd.ReadString('\n')
	if err != nil {
		return "", nil, fmt.Errorf("wire recv: %w", err)
	}
	head = strings.TrimRight(head, "\r\n")
	var tag string
	if strings.HasPrefix(head, "@") {
		if i := strings.IndexByte(head, ' '); i > 1 {
			tag, head = head[:i], head[i+1:]
		}
	}
	if strings.HasPrefix(head, "ERR ") {
		return tag, nil, errors.New(strings.TrimPrefix(head, "ERR "))
	}
	var ncols, nrows int
	var latUS, affected int64
	// Four head fields since affected-count support; a three-field head
	// from an older server leaves Affected zero.
	if _, err := fmt.Sscanf(head, "OK %d %d %d %d", &ncols, &nrows, &latUS, &affected); err != nil {
		if _, err := fmt.Sscanf(head, "OK %d %d %d", &ncols, &nrows, &latUS); err != nil {
			return tag, nil, fmt.Errorf("wire: malformed response %q", head)
		}
	}
	res := &Result{Latency: time.Duration(latUS) * time.Microsecond, Affected: affected}
	if err := readResultBody(c.rd, res, ncols, nrows); err != nil {
		return tag, nil, err
	}
	return tag, res, nil
}

// readResultBody reads the column, row and terminator lines of one
// EXEC/BIND-style response into res.
func readResultBody(rd *bufio.Reader, res *Result, ncols, nrows int) error {
	if ncols > 0 {
		colLine, err := rd.ReadString('\n')
		if err != nil {
			return err
		}
		res.Columns = strings.Split(strings.TrimRight(colLine, "\r\n"), "\t")
		for i := 0; i < nrows; i++ {
			rowLine, err := rd.ReadString('\n')
			if err != nil {
				return err
			}
			cells := strings.Split(strings.TrimRight(rowLine, "\r\n"), "\t")
			row := make([]types.Value, len(cells))
			for j, cell := range cells {
				row[j] = decodeCell(cell)
			}
			res.Rows = append(res.Rows, row)
		}
	}
	term, err := rd.ReadString('\n')
	if err != nil {
		return err
	}
	if strings.TrimRight(term, "\r\n") != "." {
		return fmt.Errorf("wire: missing terminator, got %q", term)
	}
	return nil
}

// Metrics sends a METRICS frame and returns the server's rendered
// Prometheus exposition document. It fails when the server has no
// metrics registry armed (ServeMetrics was not called).
func (c *Client) Metrics() (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := fmt.Fprint(c.conn, "METRICS\n"); err != nil {
		return "", fmt.Errorf("wire send: %w", err)
	}
	return c.readSizedDoc("MET")
}

// Stmt is a client-side handle on a server-side prepared statement.
type Stmt struct {
	c       *Client
	name    string
	sql     string
	nparams int
	closed  bool
}

// Prepare sends a PREPARE frame and returns a handle on the server-side
// statement. The SQL may contain ? or $n placeholders; the arguments of
// each execution travel typed in BIND frames — nothing is interpolated
// into the statement text on either side.
func (c *Client) Prepare(sql string) (*Stmt, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	name := fmt.Sprintf("s%d", c.nextID)
	flat := strings.ReplaceAll(strings.ReplaceAll(sql, "\r", " "), "\n", " ")
	if _, err := fmt.Fprintf(c.conn, "PREPARE %s %s\n", name, flat); err != nil {
		return nil, fmt.Errorf("wire send: %w", err)
	}
	head, err := c.rd.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("wire recv: %w", err)
	}
	head = strings.TrimRight(head, "\r\n")
	if strings.HasPrefix(head, "ERR ") {
		return nil, errors.New(strings.TrimPrefix(head, "ERR "))
	}
	var gotName string
	var nparams int
	if _, err := fmt.Sscanf(head, "STMT %s %d", &gotName, &nparams); err != nil || gotName != name {
		return nil, fmt.Errorf("wire: malformed PREPARE response %q", head)
	}
	return &Stmt{c: c, name: name, sql: sql, nparams: nparams}, nil
}

// SQL returns the statement text as prepared.
func (st *Stmt) SQL() string { return st.sql }

// NumParams reports how many arguments Exec expects.
func (st *Stmt) NumParams() int { return st.nparams }

// Exec executes the prepared statement with the given typed arguments
// via a BIND frame and decodes the response.
func (st *Stmt) Exec(args ...types.Value) (*Result, error) {
	st.c.mu.Lock()
	defer st.c.mu.Unlock()
	if st.closed {
		return nil, errors.New("wire: statement is closed")
	}
	enc := make([]string, len(args))
	for i, v := range args {
		enc[i] = v.Encode()
	}
	req := "BIND " + st.name
	if len(enc) > 0 {
		req += " " + strings.Join(enc, "\t")
	}
	if _, err := fmt.Fprintf(st.c.conn, "%s\n", req); err != nil {
		return nil, fmt.Errorf("wire send: %w", err)
	}
	return st.c.readResult()
}

// Close deallocates the server-side statement.
func (st *Stmt) Close() error {
	st.c.mu.Lock()
	defer st.c.mu.Unlock()
	if st.closed {
		return nil
	}
	st.closed = true
	if _, err := fmt.Fprintf(st.c.conn, "CLOSE %s\n", st.name); err != nil {
		return fmt.Errorf("wire send: %w", err)
	}
	_, err := st.c.readResult()
	return err
}

// decodeCell reconstructs a typed value from its wire form. Numbers
// become numeric values; everything else stays a string.
func decodeCell(cell string) types.Value {
	if cell == nullToken {
		return types.Null()
	}
	if i, err := strconv.ParseInt(cell, 10, 64); err == nil {
		return types.NewInt(i)
	}
	if f, err := strconv.ParseFloat(cell, 64); err == nil {
		return types.NewFloat(f)
	}
	return types.NewString(cell)
}

// Close closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, _ = fmt.Fprint(c.conn, "QUIT\n")
	return c.conn.Close()
}
