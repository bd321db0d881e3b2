//! NVMe-style queue-pair timing primitives: doorbell batching on the
//! submission side and interrupt coalescing on the completion side.
//!
//! Both follow the same *threshold or timeout* shape. A doorbell batch
//! rings when it fills (`batch` submissions) or when the oldest pending
//! submission has waited `timeout`, whichever comes first; an interrupt
//! fires when `threshold` completions have aggregated or the oldest
//! pending completion has waited `timeout`. With threshold 1 and no
//! timeout both collapse to the identity (ring/deliver immediately) —
//! the pass-through contract.
//!
//! Items are fed in nondecreasing time order (arrival order on the
//! submission side, completion order on the completion side) and the
//! timeout check runs *before* each push, so every pending item is
//! strictly younger than the expiry it might be released at — ring and
//! delivery times never precede the items they release.

use dloop_simkit::{SimDuration, SimTime};

/// One submission-side doorbell batcher (one per submission queue).
#[derive(Debug)]
pub struct DoorbellQueue {
    batch: usize,
    timeout: Option<SimDuration>,
    /// Pending `(arrival, command id)` submissions, arrival-ordered.
    pending: Vec<(SimTime, u64)>,
    /// Doorbell rings this queue has produced.
    pub rings: u64,
}

/// A doorbell ring: the commands released and the time the device learns
/// about them (their effective device arrival).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ring {
    /// When the doorbell was rung.
    pub at: SimTime,
    /// The released command ids, submission order.
    pub commands: Vec<u64>,
}

impl DoorbellQueue {
    /// A batcher ringing after `batch` submissions or `timeout` of wait.
    pub fn new(batch: u32, timeout: Option<SimDuration>) -> Self {
        DoorbellQueue {
            batch: batch.max(1) as usize,
            timeout,
            pending: Vec::new(),
            rings: 0,
        }
    }

    fn ring(&mut self, at: SimTime, out: &mut Vec<Ring>) {
        if self.pending.is_empty() {
            return;
        }
        self.rings += 1;
        out.push(Ring {
            at,
            commands: self.pending.drain(..).map(|(_, id)| id).collect(),
        });
    }

    /// Submit command `id` at `arrival`; any rings this causes (a timeout
    /// expiring before it, or the batch filling) are appended to `out`.
    pub fn push(&mut self, arrival: SimTime, id: u64, out: &mut Vec<Ring>) {
        if let (Some(t), Some(&(first, _))) = (self.timeout, self.pending.first()) {
            let expiry = first + t;
            if expiry <= arrival {
                self.ring(expiry, out);
            }
        }
        self.pending.push((arrival, id));
        if self.pending.len() >= self.batch {
            self.ring(arrival, out);
        }
    }

    /// End of trace: ring whatever is still pending. With a timeout the
    /// partial batch rings at its natural expiry (which is after every
    /// pending arrival — expired batches were flushed on push); without
    /// one there is no later arrival to wait for, so it rings at the last
    /// pending arrival.
    pub fn flush(&mut self, out: &mut Vec<Ring>) {
        if self.pending.is_empty() {
            return;
        }
        let first = self.pending[0].0;
        let last = self.pending.last().expect("non-empty").0;
        let at = match self.timeout {
            Some(t) => (first + t).max(last),
            None => last,
        };
        self.ring(at, out);
    }
}

/// One completion-side interrupt coalescer (one per completion queue).
/// Timeout expiries are *timers* the caller schedules: the interleaved
/// event loop (`HostStack::run`) puts them on its event heap, because
/// learning an expiry passed only when a later completion arrives is too
/// late when the freed SQ slot should have admitted a command at the
/// expiry instant.
#[derive(Debug)]
pub struct CqState {
    threshold: usize,
    timeout: Option<SimDuration>,
    /// Pending `(done, command id)` completions, done-ordered.
    pending: Vec<(SimTime, u64)>,
    /// Bumped on every delivery. An armed timer carries the epoch it was
    /// armed in and fires only if no delivery happened since — stale
    /// timers are no-ops.
    epoch: u64,
    /// Interrupts this queue has delivered.
    pub interrupts: u64,
}

impl CqState {
    /// A coalescer interrupting after `threshold` completions or
    /// `timeout` of aggregation.
    pub fn new(threshold: u32, timeout: Option<SimDuration>) -> Self {
        CqState {
            threshold: threshold.max(1) as usize,
            timeout,
            pending: Vec::new(),
            epoch: 0,
            interrupts: 0,
        }
    }

    fn deliver(&mut self, at: SimTime, out: &mut Vec<(u64, SimTime)>) {
        if self.pending.is_empty() {
            return;
        }
        self.epoch += 1;
        self.interrupts += 1;
        out.extend(self.pending.drain(..).map(|(_, id)| (id, at)));
    }

    /// Record command `id` completing at `done`. Delivers into `out` if
    /// the threshold filled; otherwise, if this push started a new
    /// aggregate and a timeout is configured, returns the `(expiry,
    /// epoch)` timer the caller must schedule (pass both back to
    /// [`CqState::timer`] when it fires).
    pub fn push(
        &mut self,
        done: SimTime,
        id: u64,
        out: &mut Vec<(u64, SimTime)>,
    ) -> Option<(SimTime, u64)> {
        self.pending.push((done, id));
        if self.pending.len() >= self.threshold {
            self.deliver(done, out);
            return None;
        }
        match self.timeout {
            Some(t) if self.pending.len() == 1 => Some((done + t, self.epoch)),
            _ => None,
        }
    }

    /// A timer armed in `epoch` fired at `at`: deliver the aggregate it
    /// was armed for, unless a threshold delivery already drained it.
    pub fn timer(&mut self, at: SimTime, epoch: u64, out: &mut Vec<(u64, SimTime)>) {
        if epoch == self.epoch {
            self.deliver(at, out);
        }
    }

    /// End of run (or SQ-window deadlock rescue): deliver whatever is
    /// still aggregating: at its timeout expiry if one is set, else at the
    /// final completion (no further completion will trip the threshold).
    pub fn flush(&mut self, out: &mut Vec<(u64, SimTime)>) {
        if self.pending.is_empty() {
            return;
        }
        let first = self.pending[0].0;
        let last = self.pending.last().expect("non-empty").0;
        let at = match self.timeout {
            Some(t) => (first + t).max(last),
            None => last,
        };
        self.deliver(at, out);
    }

    /// Whether completions are still aggregating.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimTime {
        SimTime::from_micros(n)
    }

    #[test]
    fn batch_of_one_rings_immediately() {
        let mut q = DoorbellQueue::new(1, None);
        let mut out = Vec::new();
        for (i, t) in [3u64, 9, 10].iter().enumerate() {
            q.push(us(*t), i as u64, &mut out);
        }
        q.flush(&mut out);
        assert_eq!(
            out,
            vec![
                Ring {
                    at: us(3),
                    commands: vec![0]
                },
                Ring {
                    at: us(9),
                    commands: vec![1]
                },
                Ring {
                    at: us(10),
                    commands: vec![2]
                },
            ]
        );
        assert_eq!(q.rings, 3);
    }

    #[test]
    fn full_batch_rings_at_filling_arrival() {
        let mut q = DoorbellQueue::new(3, None);
        let mut out = Vec::new();
        q.push(us(1), 0, &mut out);
        q.push(us(2), 1, &mut out);
        assert!(out.is_empty());
        q.push(us(5), 2, &mut out);
        assert_eq!(
            out,
            vec![Ring {
                at: us(5),
                commands: vec![0, 1, 2]
            }]
        );
    }

    #[test]
    fn timeout_rings_partial_batch_at_expiry() {
        let mut q = DoorbellQueue::new(8, Some(SimDuration::from_micros(10)));
        let mut out = Vec::new();
        q.push(us(0), 0, &mut out);
        q.push(us(4), 1, &mut out);
        assert!(out.is_empty());
        q.push(us(25), 2, &mut out); // expiry at 10 µs precedes this arrival
        assert_eq!(
            out,
            vec![Ring {
                at: us(10),
                commands: vec![0, 1]
            }]
        );
        q.flush(&mut out);
        assert_eq!(
            out[1],
            Ring {
                at: us(35),
                commands: vec![2]
            }
        );
    }

    #[test]
    fn flush_without_timeout_rings_at_last_arrival() {
        let mut q = DoorbellQueue::new(8, None);
        let mut out = Vec::new();
        q.push(us(2), 0, &mut out);
        q.push(us(7), 1, &mut out);
        q.flush(&mut out);
        assert_eq!(
            out,
            vec![Ring {
                at: us(7),
                commands: vec![0, 1]
            }]
        );
    }

    #[test]
    fn cq_state_threshold_one_delivers_at_completion_time() {
        let mut c = CqState::new(1, None);
        let mut out = Vec::new();
        assert_eq!(c.push(us(5), 7, &mut out), None);
        assert_eq!(c.push(us(6), 8, &mut out), None);
        c.flush(&mut out);
        assert_eq!(out, vec![(7, us(5)), (8, us(6))]);
        assert_eq!(c.interrupts, 2);
    }

    #[test]
    fn cq_state_coalesced_completions_share_one_delivery() {
        let mut c = CqState::new(3, None);
        let mut out = Vec::new();
        assert_eq!(c.push(us(1), 0, &mut out), None); // no timeout: no timer
        assert_eq!(c.push(us(2), 1, &mut out), None);
        assert!(out.is_empty());
        assert_eq!(c.push(us(9), 2, &mut out), None);
        assert_eq!(out, vec![(0, us(9)), (1, us(9)), (2, us(9))]);
        assert_eq!(c.interrupts, 1);
        // Delivery never precedes any coalesced completion.
        assert!(out.iter().all(|&(_, d)| d >= us(1)));
    }

    #[test]
    fn cq_state_timer_delivers_the_epoch_it_was_armed_for() {
        let mut c = CqState::new(16, Some(SimDuration::from_micros(50)));
        let mut out = Vec::new();
        let timer = c.push(us(10), 0, &mut out).expect("first push arms");
        assert_eq!(timer, (us(60), 0));
        assert_eq!(c.push(us(30), 1, &mut out), None); // aggregate not new

        // The timeout bounds the added latency: the 10+50 = 60 µs expiry
        // fires before the next completion at 100 µs.
        c.timer(us(60), 0, &mut out);
        assert_eq!(out, vec![(0, us(60)), (1, us(60))]);
        assert_eq!(c.interrupts, 1);
        // The next completion starts a fresh aggregate and a fresh timer
        // epoch; the old timer replayed late is a no-op.
        let timer2 = c.push(us(100), 2, &mut out).expect("new aggregate");
        assert_eq!(timer2, (us(150), 1));
        c.timer(us(60), 0, &mut out);
        assert_eq!(out.len(), 2, "stale timer must not deliver");
        c.flush(&mut out);
        assert_eq!(out[2], (2, us(150)));
        assert!(!c.has_pending());
    }

    #[test]
    fn cq_state_threshold_fill_cancels_the_armed_timer() {
        let mut c = CqState::new(2, Some(SimDuration::from_micros(50)));
        let mut out = Vec::new();
        let timer = c.push(us(10), 0, &mut out).expect("arms");
        assert_eq!(c.push(us(20), 1, &mut out), None); // fills → delivers
        assert_eq!(out, vec![(0, us(20)), (1, us(20))]);
        c.timer(timer.0, timer.1, &mut out);
        assert_eq!(out.len(), 2, "delivered aggregate bumped the epoch");
    }
}
