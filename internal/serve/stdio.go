package serve

import (
	"bufio"
	"context"
	"io"
	"strings"
	"sync"
)

// DefaultMaxInFlight bounds how many stdio request lines are being
// answered at once: read-ahead stalls beyond it, so a fast client's
// queries overlap on the evaluator pool without the server ever holding
// unbounded state.
const DefaultMaxInFlight = 32

// maxLineBytes bounds one request line (defense against unframed input).
const maxLineBytes = 1 << 20

// ServeLines runs the JSON-lines protocol (the BookSim2-style cosim
// interface): one request object per line on r, one response line on w,
// responses in request order. Lines are answered concurrently — up to
// maxInFlight queries overlap, so identical queries dedup and distinct
// ones evaluate in parallel inside the engine — but the writer releases
// them strictly in input order, keeping the stream usable without IDs.
// Blank lines are ignored; malformed lines get a structured bad_json
// response rather than killing the session. ServeLines returns on EOF,
// write failure or ctx cancellation (maxInFlight <= 0 selects
// DefaultMaxInFlight).
func (e *Engine) ServeLines(ctx context.Context, r io.Reader, w io.Writer, maxInFlight int) error {
	if maxInFlight <= 0 {
		maxInFlight = DefaultMaxInFlight
	}
	// order carries one reply slot per request line, in input order; its
	// capacity is the in-flight bound the reader blocks on.
	order := make(chan chan []byte, maxInFlight)
	writeErr := make(chan error, 1)
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		bw := bufio.NewWriter(w)
		for slot := range order {
			line := <-slot
			if _, err := bw.Write(append(line, '\n')); err != nil {
				trySendErr(writeErr, err)
				drainSlots(order)
				return
			}
			// Flush per response: the peer is a co-simulator blocking on
			// the answer to the line it just wrote.
			if err := bw.Flush(); err != nil {
				trySendErr(writeErr, err)
				drainSlots(order)
				return
			}
		}
	}()

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	var handlers sync.WaitGroup
scan:
	for sc.Scan() {
		raw := strings.TrimSpace(sc.Text())
		if raw == "" {
			continue
		}
		slot := make(chan []byte, 1)
		select {
		case order <- slot: // reserves an in-flight slot
		case err := <-writeErr:
			close(order)
			writer.Wait()
			handlers.Wait()
			return err
		case <-ctx.Done():
			break scan
		}
		handlers.Add(1)
		go func(line string) {
			defer handlers.Done()
			slot <- e.handleLine(ctx, line)
		}(raw)
	}
	close(order)
	handlers.Wait()
	writer.Wait()
	select {
	case err := <-writeErr:
		return err
	default:
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return ctx.Err()
}

// handleLine answers one raw request line.
func (e *Engine) handleLine(ctx context.Context, line string) []byte {
	req, decErr := DecodeRequest([]byte(line))
	if decErr != nil {
		return errResponse(req.ID, decErr).Encode()
	}
	return e.Do(ctx, req).Encode()
}

func trySendErr(ch chan<- error, err error) {
	select {
	case ch <- err:
	default:
	}
}

// drainSlots unblocks handlers still delivering after a write failure.
func drainSlots(order <-chan chan []byte) {
	for slot := range order {
		<-slot
	}
}
