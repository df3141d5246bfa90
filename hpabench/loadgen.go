package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// openLoop sends queries on a fixed schedule: query i is due at
// start + i/rate, whatever happened to the queries before it. conns
// senders each take the next query in schedule order, wait until it is
// due, and send it, so at most conns queries are in flight.
//
// A query's latency is counted from its due time when every sender was
// still busy at that moment — the wait a slow answer imposes on the
// queries behind it counts. A query whose sender was idle and asleep
// until the due time is counted from the moment it was sent, so timer
// wake-up slack is not charged to the server; it shows in the lag (send
// time minus due time), which every query reports.
func openLoop(rate float64, dur time.Duration, conns int, send func(conn, i int) error) ladderStep {
	total := int(rate * dur.Seconds())
	if total < 1 {
		total = 1
	}
	interval := time.Duration(float64(time.Second) / rate)
	lat := make([]time.Duration, total)
	lag := make([]time.Duration, total)
	ok := make([]bool, total)
	var next atomic.Int64
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= total {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				claimed := time.Now()
				if d := due.Sub(claimed); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				err := send(c, i)
				done := time.Now()
				origin := due
				if claimed.Before(due) {
					origin = sent
				}
				lat[i], lag[i], ok[i] = done.Sub(origin), sent.Sub(due), err == nil
			}
		}()
	}
	wg.Wait()
	st := ladderStep{Rate: rate, Lag: lag}
	for i := range lat {
		if ok[i] {
			st.Lat = append(st.Lat, lat[i])
		} else {
			st.Failed++
		}
	}
	return st
}
