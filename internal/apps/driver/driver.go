// Package driver runs workload mixes against the ported applications
// with concurrent client threads, as the paper's benchmarks do (memslap
// with 4 clients, redis-benchmark with 50, YCSB with 4 — Table 6).  The
// Figure 12 bench uses it to measure throughput with and without the
// DeepMC runtime tracker attached.
package driver

import (
	"sync"
	"sync/atomic"
	"time"

	"deepmc/internal/apps/memcache"
	"deepmc/internal/apps/nstore"
	"deepmc/internal/apps/redis"
	"deepmc/internal/workload"
)

// KV abstracts one operation against an application under test.
type KV interface {
	Do(thread int64, op workload.Op) error
}

// serveRequest simulates the per-request work a real server performs
// around the storage engine — wire-format encoding, request parsing, and
// payload checksumming — so the storage and tracking costs sit in a
// realistic proportion of each operation, as they do for the paper's
// socket-driven Memcached/Redis/NStore setups.
func serveRequest(op workload.Op, payload []byte) uint64 {
	var buf [96]byte
	n := 0
	buf[n] = byte(op.Kind)
	n++
	k := op.Key
	for i := 0; i < 16; i++ {
		buf[n] = 'a' + byte(k&0xf)
		k >>= 4
		n++
	}
	copy(buf[n:], payload)
	if len(payload) > len(buf)-n {
		n = len(buf)
	} else {
		n += len(payload)
	}
	// Parse the request back (opcode + key decode), then checksum the
	// payload, FNV-style, a few rounds as protocol handlers do.
	var key uint64
	for i := 16; i >= 1; i-- {
		key = key<<4 | uint64(buf[i]-'a')
	}
	h := uint64(1469598103934665603)
	for round := 0; round < 4; round++ {
		for i := 0; i < n; i++ {
			h ^= uint64(buf[i])
			h *= 1099511628211
		}
	}
	return h ^ key
}

// sink prevents the compiler from eliding serveRequest.
var sink atomic.Uint64

// Result summarizes one run.
type Result struct {
	Ops     int
	Elapsed time.Duration
}

// Throughput returns operations per second.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// Run executes opsPerClient operations of the mix on each of clients
// concurrent client threads.  A client stops at its first failed
// operation, and Run returns the first such error in client order.
func Run(kv KV, mix workload.Mix, clients, opsPerClient int, keyspace uint64) (Result, error) {
	if err := mix.Validate(); err != nil {
		return Result{}, err
	}
	var wg sync.WaitGroup
	errs := make([]error, clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			gen, err := workload.NewGenerator(mix, keyspace, int64(id)*7919+1)
			if err != nil {
				errs[id] = err
				return
			}
			for i := 0; i < opsPerClient; i++ {
				if err := kv.Do(int64(id+1), gen.Next()); err != nil {
					errs[id] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	res := Result{Ops: clients * opsPerClient, Elapsed: time.Since(start)}
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

// Preload inserts the initial key space (sequentially, one thread).
func Preload(kv KV, keyspace uint64) error {
	for k := uint64(0); k < keyspace; k++ {
		if err := kv.Do(0, workload.Op{Kind: workload.OpInsert, Key: k}); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Adapters

// MemcacheKV adapts the memcache store.
type MemcacheKV struct{ S *memcache.Store }

// Do dispatches one memslap operation.
func (m MemcacheKV) Do(thread int64, op workload.Op) error {
	sink.Add(serveRequest(op, workload.Value(op.Key, 64)))
	switch op.Kind {
	case workload.OpRead:
		_, _, err := m.S.Get(thread, op.Key)
		return err
	case workload.OpUpdate, workload.OpInsert:
		return m.S.Set(thread, op.Key, valueWords(op.Key))
	case workload.OpRMW:
		if _, err := m.S.Incr(thread, op.Key, 1); err != nil {
			// RMW on a missing key degrades to an insert, as memslap's
			// read-modify-write does on a cold cache.
			return m.S.Set(thread, op.Key, valueWords(op.Key))
		}
		return nil
	case workload.OpScan:
		for i := uint64(0); i < uint64(op.ScanLen); i++ {
			if _, _, err := m.S.Get(thread, op.Key+i); err != nil {
				return err
			}
		}
	}
	return nil
}

// RedisKV adapts the redis database; Op kinds map onto the benchmark's
// SET/GET/INCR/LPUSH/LPOP command mix.
type RedisKV struct {
	DB *redis.DB
	// Cmd fixes the command exercised ("" = map from op kind).
	Cmd string
}

// Do dispatches one redis-benchmark operation.
func (r RedisKV) Do(thread int64, op workload.Op) error {
	sink.Add(serveRequest(op, workload.Value(op.Key, 32)))
	cmd := r.Cmd
	if cmd == "" {
		switch op.Kind {
		case workload.OpRead:
			cmd = "GET"
		case workload.OpUpdate, workload.OpInsert:
			cmd = "SET"
		case workload.OpRMW:
			cmd = "INCR"
		default:
			cmd = "GET"
		}
	}
	switch cmd {
	case "SET":
		return r.DB.Set(thread, op.Key, workload.Value(op.Key, 32))
	case "GET":
		_, _, err := r.DB.Get(thread, op.Key)
		return err
	case "INCR":
		_, err := r.DB.Incr(thread, op.Key)
		return err
	case "LPUSH":
		return r.DB.LPush(thread, op.Key%128, workload.Value(op.Key, 32))
	case "LPOP":
		_, _, err := r.DB.LPop(thread, op.Key%128)
		return err
	case "SADD":
		_, err := r.DB.SAdd(thread, op.Key%128, op.Key)
		return err
	}
	return nil
}

// NStoreKV adapts the nstore engine for YCSB.
type NStoreKV struct{ E *nstore.Engine }

// Do dispatches one YCSB operation.
func (n NStoreKV) Do(thread int64, op workload.Op) error {
	sink.Add(serveRequest(op, workload.Value(op.Key, 64)))
	switch op.Kind {
	case workload.OpRead:
		_, _, err := n.E.Read(thread, op.Key)
		return err
	case workload.OpUpdate:
		return n.E.Update(thread, op.Key, tupleWords(op.Key))
	case workload.OpInsert:
		return n.E.Insert(thread, op.Key%(1<<16), tupleWords(op.Key))
	case workload.OpRMW:
		return n.E.ReadModifyWrite(thread, op.Key)
	case workload.OpScan:
		_, err := n.E.Scan(thread, op.Key, op.ScanLen)
		return err
	}
	return nil
}

func valueWords(key uint64) []uint64 {
	out := make([]uint64, memcache.ValueWords)
	for i := range out {
		out[i] = key + uint64(i)
	}
	return out
}

func tupleWords(key uint64) []uint64 {
	out := make([]uint64, nstore.TupleWords)
	for i := range out {
		out[i] = key ^ uint64(i)
	}
	return out
}
