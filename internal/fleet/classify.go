package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"syscall"
	"time"
)

// Retry classification: every HTTP transport failure lands in exactly
// one class, and the class — not the error text — decides what the
// scheduler does with the job.
//
//	ErrConn      the shard (or the path to it) failed: refused, reset,
//	             timed out, or the response died mid-body.  The job is
//	             fine; requeue it for free (like an in-process shard
//	             death) and feed the shard's breaker.
//	ErrCorrupt   bytes arrived but failed verification (checksum,
//	             length framing, JSON parse).  Same handling as
//	             ErrConn — a corrupted report is never trusted — but
//	             counted separately: corruption is a different disease
//	             than disconnection.
//	ErrTerminal  the shard answered authoritatively that the job is
//	             bad (4xx).  Retrying elsewhere cannot help; the error
//	             becomes the job's outcome immediately.
//	ErrThrottle  429: the shard is shedding load.  Budgeted retry that
//	             honors the server's Retry-After instead of the
//	             default jittered backoff, and does NOT feed the
//	             breaker — shedding is the admission queue working,
//	             not the shard failing.
//	ErrServer    5xx/503: the shard errored on our job.  Breaker-fed
//	             budgeted retry with jittered backoff (or the server's
//	             Retry-After when it names one).
type ErrClass int

const (
	ErrConn ErrClass = iota
	ErrCorrupt
	ErrTerminal
	ErrThrottle
	ErrServer
)

// String names the class for logs and tests.
func (c ErrClass) String() string {
	switch c {
	case ErrConn:
		return "conn"
	case ErrCorrupt:
		return "corrupt"
	case ErrTerminal:
		return "terminal"
	case ErrThrottle:
		return "throttle"
	default:
		return "server"
	}
}

// NetError is a classified HTTP transport failure.
type NetError struct {
	Class      ErrClass
	Status     int           // HTTP status when one was received, else 0
	RetryAfter time.Duration // server-directed delay (429/503), else 0
	Msg        string
}

func (e *NetError) Error() string {
	if e.Status > 0 {
		return fmt.Sprintf("fleet: %s (%d): %s", e.Class, e.Status, e.Msg)
	}
	return fmt.Sprintf("fleet: %s: %s", e.Class, e.Msg)
}

// classifyTransportErr maps a Do/read error (no usable response) to a
// class.  Everything here is connection-shaped: refused, reset, timed
// out, or truncated — the remote never authoritatively judged the job.
func classifyTransportErr(err error) *NetError {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return &NetError{Class: ErrConn, Msg: "request deadline exceeded: " + err.Error()}
	case errors.Is(err, syscall.ECONNREFUSED):
		return &NetError{Class: ErrConn, Msg: "connection refused: " + err.Error()}
	case errors.Is(err, syscall.ECONNRESET):
		return &NetError{Class: ErrConn, Msg: "connection reset: " + err.Error()}
	case errors.Is(err, io.ErrUnexpectedEOF), errors.Is(err, io.EOF):
		return &NetError{Class: ErrConn, Msg: "truncated response: " + err.Error()}
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return &NetError{Class: ErrConn, Msg: "i/o timeout: " + err.Error()}
	}
	// Unrecognized transport failures are still connection-class: the
	// job was never judged, so retrying it elsewhere is always safe
	// (analysis is deterministic and idempotent).
	return &NetError{Class: ErrConn, Msg: err.Error()}
}

// classifyStatus maps a non-200 HTTP response to a class.
func classifyStatus(status int, retryAfter string, body []byte) *NetError {
	msg := string(body)
	if len(msg) > 200 {
		msg = msg[:200]
	}
	switch {
	case status == http.StatusTooManyRequests:
		return &NetError{Class: ErrThrottle, Status: status, RetryAfter: parseRetryAfter(retryAfter, time.Now()), Msg: msg}
	case status >= 400 && status < 500:
		return &NetError{Class: ErrTerminal, Status: status, Msg: msg}
	default:
		return &NetError{Class: ErrServer, Status: status, RetryAfter: parseRetryAfter(retryAfter, time.Now()), Msg: msg}
	}
}

// parseRetryAfter reads a Retry-After header in either form: a delay in
// seconds (what this fleet's servers emit) or an HTTP-date, read
// relative to now.  Absent, unparseable, negative or past yields 0,
// which falls back to the scheduler's jittered backoff.  The scheduler
// caps the delay at its RetryMax.
func parseRetryAfter(h string, now time.Time) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.ParseInt(h, 10, 64); err == nil {
		// Clamp before multiplying, so a huge delay cannot overflow.
		return time.Duration(min(max(secs, 0), int64(math.MaxInt64/time.Second))) * time.Second
	}
	at, err := http.ParseTime(h)
	if err != nil {
		return 0
	}
	return max(at.Sub(now), 0)
}
