package fleet

import (
	"context"
	"errors"
	"io"
	"math"
	"net"
	"syscall"
	"testing"
	"time"
)

// timeoutNetErr mimics a net.Error timeout (e.g. a dial or read
// deadline expiring inside the http client).
type timeoutNetErr struct{}

func (timeoutNetErr) Error() string   { return "i/o timeout" }
func (timeoutNetErr) Timeout() bool   { return true }
func (timeoutNetErr) Temporary() bool { return true }

var _ net.Error = timeoutNetErr{}

// TestClassifyTransportErr is the satellite table: every way a wire
// can fail without an HTTP status maps to the connection class, whose
// requeue is free — the job was never judged.
func TestClassifyTransportErr(t *testing.T) {
	cases := []struct {
		name string
		err  error
	}{
		{"conn refused", &net.OpError{Op: "dial", Err: syscall.ECONNREFUSED}},
		{"conn reset", &net.OpError{Op: "read", Err: syscall.ECONNRESET}},
		{"context deadline", context.DeadlineExceeded},
		{"eof", io.EOF},
		{"unexpected eof (truncated body)", io.ErrUnexpectedEOF},
		{"net timeout", timeoutNetErr{}},
		{"unrecognized", errors.New("weird proxy hiccup")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := classifyTransportErr(tc.err)
			var ne *NetError
			if !errors.As(err, &ne) {
				t.Fatalf("classifyTransportErr(%v) = %T, want *NetError", tc.err, err)
			}
			if ne.Class != ErrConn {
				t.Fatalf("classifyTransportErr(%v).Class = %v, want ErrConn", tc.err, ne.Class)
			}
		})
	}
}

// TestClassifyStatus is the satellite table for responses that did
// arrive: 4xx terminal, 429 throttle honoring Retry-After, 5xx
// breaker-fed server error.
func TestClassifyStatus(t *testing.T) {
	cases := []struct {
		name       string
		status     int
		retryAfter string
		class      ErrClass
		after      time.Duration
	}{
		{"400 bad request", 400, "", ErrTerminal, 0},
		{"404 not found", 404, "", ErrTerminal, 0},
		{"422 unprocessable", 422, "", ErrTerminal, 0},
		{"429 shed", 429, "2", ErrThrottle, 2 * time.Second},
		{"429 shed no hint", 429, "", ErrThrottle, 0},
		{"500 internal", 500, "", ErrServer, 0},
		{"502 bad gateway", 502, "", ErrServer, 0},
		{"503 with retry-after", 503, "1", ErrServer, time.Second},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := classifyStatus(tc.status, tc.retryAfter, []byte("detail"))
			var ne *NetError
			if !errors.As(err, &ne) {
				t.Fatalf("classifyStatus(%d) = %T, want *NetError", tc.status, err)
			}
			if ne.Class != tc.class {
				t.Fatalf("classifyStatus(%d).Class = %v, want %v", tc.status, ne.Class, tc.class)
			}
			if ne.RetryAfter != tc.after {
				t.Fatalf("classifyStatus(%d).RetryAfter = %v, want %v", tc.status, ne.RetryAfter, tc.after)
			}
			if ne.Status != tc.status {
				t.Fatalf("classifyStatus(%d).Status = %d", tc.status, ne.Status)
			}
		})
	}
}

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2015, time.October, 21, 7, 28, 0, 0, time.UTC)
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"0", 0},
		{"3", 3 * time.Second},
		{"-1", 0},
		{"garbage", 0},
		{"Wed, 21 Oct 2015 07:28:00 GMT", 0}, // http-date at now
		{"Wed, 21 Oct 2015 07:29:30 GMT", 90 * time.Second},       // future http-date
		{"Wednesday, 21-Oct-15 07:28:05 GMT", 5 * time.Second},    // RFC 850 form
		{"Wed, 21 Oct 2015 07:27:00 GMT", 0},                      // past http-date: retry now
		{"Wed, 21 Oct 2015 25:61:00 GMT", 0},                      // malformed http-date
		{"Wed, 21 Oct 2015", 0},                                   // truncated http-date
		{"9223372037", math.MaxInt64 / time.Second * time.Second}, // seconds beyond time.Duration
		{"9223372036854775807", math.MaxInt64 / time.Second * time.Second},
	}
	for _, tc := range cases {
		if got := parseRetryAfter(tc.in, now); got != tc.want {
			t.Fatalf("parseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
