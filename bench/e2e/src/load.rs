//! Load generation against a daemon: an open loop on a fixed
//! timetable, a closed loop, and the ×2 rate ladder that finds the knee.

use crate::http::{Client, Reply};
use crate::report::Report;
use crate::stats;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Sender threads of an open loop.  Fixed rather than `nproc`, so the
/// concurrency offered to the daemon is the same on every host; they
/// block on sockets and cost the daemon no CPU while they wait.
pub const SENDERS: usize = 8;

/// Per-request socket timeout: long enough that a saturated daemon's
/// tail is observed, not truncated.
pub const TIMEOUT: Duration = Duration::from_secs(10);

/// One request as the generator saw it.
#[derive(Debug)]
pub struct Sample {
    /// Position in the timetable (open loop) or in the send order.
    pub index: u64,
    /// When the request was sent.
    pub sent: Instant,
    /// From the **due** time (open loop) or the send (closed loop) to
    /// the last body byte.
    pub latency: Duration,
    /// How late the generator sent it.
    pub lag: Duration,
    /// The reply, or why there is none.
    pub reply: Result<Reply, String>,
}

/// What a slot of the timetable does: issue request `index` on the
/// client, and return the reply only if it passes the output checks.
pub type Op<'a> = dyn Fn(u64, &mut Client) -> Result<Reply, String> + Sync + 'a;

/// Result of one open- or closed-loop phase.
#[derive(Debug, Default)]
pub struct Phase {
    pub samples: Vec<Sample>,
    /// Timetable slots never sent before the grace period ended; each
    /// counts as a failed request.
    pub unsent: u64,
    pub elapsed: Duration,
    pub requests: u64,
    pub connects: u64,
}

impl Phase {
    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64 + self.unsent
    }

    pub fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| s.reply.is_err()).count() as u64 + self.unsent
    }

    /// Latencies of the successful requests in milliseconds, ascending.
    pub fn latencies_ms(&self) -> Vec<f64> {
        let mut ms: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.reply.is_ok())
            .map(|s| s.latency.as_secs_f64() * 1e3)
            .collect();
        stats::sort(&mut ms);
        ms
    }

    /// Generator lateness in microseconds, ascending.
    pub fn lags_us(&self) -> Vec<f64> {
        let mut us: Vec<f64> = self
            .samples
            .iter()
            .map(|s| s.lag.as_secs_f64() * 1e6)
            .collect();
        stats::sort(&mut us);
        us
    }

    /// Counts the phase's requests into `report` and names its failures.
    pub fn account(&self, report: &mut Report) {
        report.count(self.attempted(), self.failed());
        if self.unsent > 0 {
            report.fail(format!(
                "{} requests never sent before the grace period ended",
                self.unsent
            ));
        }
        for why in self.samples.iter().filter_map(|s| s.reply.as_ref().err()) {
            report.fail(why.clone());
        }
    }

    pub fn ok_per_s(&self) -> f64 {
        (self.samples.len() as u64 - (self.failed() - self.unsent)) as f64
            / self.elapsed.as_secs_f64()
    }
}

/// Open loop: request `i` is due at `start + i / rate`, whatever the
/// daemon is doing.  Senders claim the next slot, sleep until it is
/// due and send; a slot whose turn comes late is sent at once and its
/// latency still counts from the due time.  Claiming stops `grace`
/// after the last due time; slots unclaimed by then are `unsent`.
pub fn open_loop(
    addr: SocketAddr,
    rate: f64,
    duration: Duration,
    grace: Duration,
    op: &Op,
) -> Phase {
    let total = (rate * duration.as_secs_f64()).round().max(1.0) as u64;
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let deadline = start + duration + grace;
    let mut phase = run_clients(addr, SENDERS, |client, samples| loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        if index >= total {
            break;
        }
        let due = start + Duration::from_secs_f64(index as f64 / rate);
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let sent = Instant::now();
        if sent >= deadline {
            break;
        }
        let reply = op(index, client);
        samples.push(Sample {
            index,
            sent,
            latency: due.elapsed(),
            lag: sent - due,
            reply,
        });
    });
    phase.unsent = total - phase.samples.len() as u64;
    phase.elapsed = start.elapsed();
    phase
}

/// Closed loop: each of `clients` sends its next request when the
/// previous one completes, for `duration`.
pub fn closed_loop(addr: SocketAddr, clients: usize, duration: Duration, op: &Op) -> Phase {
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let mut phase = run_clients(addr, clients, |client, samples| {
        while start.elapsed() < duration {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let sent = Instant::now();
            let reply = op(index, client);
            samples.push(Sample {
                index,
                sent,
                latency: sent.elapsed(),
                lag: Duration::ZERO,
                reply,
            });
        }
    });
    phase.elapsed = start.elapsed();
    phase
}

fn run_clients(
    addr: SocketAddr,
    clients: usize,
    body: impl Fn(&mut Client, &mut Vec<Sample>) + Sync,
) -> Phase {
    let mut phase = Phase::default();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::new(addr, TIMEOUT);
                    let mut samples = Vec::new();
                    body(&mut client, &mut samples);
                    (samples, client.requests, client.connects)
                })
            })
            .collect();
        for worker in workers {
            let (samples, requests, connects) = worker.join().expect("a load client panicked");
            phase.samples.extend(samples);
            phase.requests += requests;
            phase.connects += connects;
        }
    });
    phase.samples.sort_by_key(|s| s.index);
    phase
}

/// One rung of the rate ladder.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rung {
    pub offered_rps: f64,
    pub achieved_rps: f64,
    pub p99_ms: f64,
    pub failed: u64,
}

/// The latency limit a rung must meet at its 99th percentile.
pub const KNEE_P99_MS: f64 = 50.0;

impl Rung {
    pub fn of(offered_rps: f64, phase: &Phase) -> Rung {
        Rung {
            offered_rps,
            achieved_rps: phase.ok_per_s(),
            p99_ms: stats::quantile(&phase.latencies_ms(), 0.99),
            failed: phase.failed(),
        }
    }

    /// Meets the limit without a growing backlog and without failures.
    pub fn passes(&self) -> bool {
        self.failed == 0
            && self.p99_ms <= KNEE_P99_MS
            && self.achieved_rps >= 0.95 * self.offered_rps
    }
}

/// Climbs `rates` in order, measuring each with `measure`, and stops
/// after two consecutive failed rungs.  Returns the rungs measured and
/// the knee: the highest passing rate, 0 when none passes.
pub fn climb(rates: &[f64], mut measure: impl FnMut(f64) -> Rung) -> (Vec<Rung>, f64) {
    let mut rungs = Vec::new();
    let mut failed_in_a_row = 0;
    for &rate in rates {
        let rung = measure(rate);
        failed_in_a_row = if rung.passes() {
            0
        } else {
            failed_in_a_row + 1
        };
        rungs.push(rung);
        if failed_in_a_row == 2 {
            break;
        }
    }
    let knee = rungs
        .iter()
        .filter(|r| r.passes())
        .map(|r| r.offered_rps)
        .fold(0.0, f64::max);
    (rungs, knee)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    /// A single-threaded stub daemon: answers each connection after
    /// `service`, one at a time, until dropped requests stop coming.
    fn slow_stub(service: Duration) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { return };
                let mut seen = Vec::new();
                let mut byte = [0u8; 1];
                while !seen.ends_with(b"\r\n\r\n") && stream.read(&mut byte).unwrap_or(0) == 1 {
                    seen.push(byte[0]);
                }
                std::thread::sleep(service);
                let _ = stream.write_all(
                    b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok",
                );
            }
        });
        addr
    }

    fn get(_: u64, client: &mut Client) -> Result<Reply, String> {
        client.get("/")
    }

    #[test]
    fn open_loop_times_from_the_due_time_and_reports_lag() {
        // 20 ms of service at 100 rps offered: the stub serves one
        // request at a time, so the backlog grows by ~10 ms per slot.
        let phase = open_loop(
            slow_stub(Duration::from_millis(20)),
            100.0,
            Duration::from_millis(200),
            Duration::from_secs(5),
            &get,
        );
        assert_eq!(
            (phase.attempted(), phase.failed(), phase.unsent),
            (20, 0, 0)
        );
        let ms = phase.latencies_ms();
        // The last slot was due at 190 ms and answered at ~400 ms; a
        // generator timing from the send would report ~20 ms for it.
        assert!(ms[19] > 150.0, "latency from due time: {ms:?}");
        assert!(ms[0] >= 20.0);
        // Only SENDERS requests can wait in flight, so later slots are
        // sent late, and that lateness is reported.
        assert!(*phase.lags_us().last().unwrap() > 20_000.0);
        assert_eq!(phase.connects, 20);
    }

    #[test]
    fn open_loop_counts_slots_unsent_after_the_grace_period_as_failed() {
        // 100 ms of service, 40 slots due within 100 ms, no grace to
        // speak of: most slots are never sent.
        let phase = open_loop(
            slow_stub(Duration::from_millis(100)),
            400.0,
            Duration::from_millis(100),
            Duration::from_millis(50),
            &get,
        );
        assert_eq!(phase.attempted(), 40);
        assert!(phase.unsent >= 20, "unsent = {}", phase.unsent);
        assert_eq!(phase.failed(), phase.unsent);
        assert_eq!(phase.samples.len() as u64 + phase.unsent, 40);
    }

    #[test]
    fn closed_loop_waits_for_each_reply() {
        let phase = closed_loop(
            slow_stub(Duration::from_millis(10)),
            1,
            Duration::from_millis(200),
            &get,
        );
        // One client, >= 10 ms per request: at most 20 fit.
        assert!(
            (5..=20).contains(&phase.samples.len()),
            "{}",
            phase.samples.len()
        );
        assert_eq!(phase.failed(), 0);
        assert!(phase.ok_per_s() <= 100.0);
    }

    fn rung(offered_rps: f64, achieved_rps: f64, p99_ms: f64, failed: u64) -> Rung {
        Rung {
            offered_rps,
            achieved_rps,
            p99_ms,
            failed,
        }
    }

    #[test]
    fn knee_is_the_highest_passing_rung_and_two_failures_stop_the_climb() {
        let rates = [200.0, 400.0, 800.0, 1600.0, 3200.0, 6400.0];
        let mut asked = Vec::new();
        let (rungs, knee) = climb(&rates, |rate| {
            asked.push(rate);
            match rate as u64 {
                200 => rung(rate, 200.0, 12.0, 0),
                // A single failed rung does not stop the climb ...
                400 => rung(rate, 400.0, 80.0, 0),
                800 => rung(rate, 790.0, 40.0, 0),
                // ... two in a row do: backlog, then failures.
                1600 => rung(rate, 1000.0, 45.0, 0),
                _ => rung(rate, 3200.0, 10.0, 1),
            }
        });
        assert_eq!(asked, [200.0, 400.0, 800.0, 1600.0, 3200.0]);
        assert_eq!(rungs.len(), 5);
        assert_eq!(knee, 800.0);

        let (rungs, knee) = climb(&rates, |rate| rung(rate, rate, 51.0, 0));
        assert_eq!((rungs.len(), knee), (2, 0.0));
    }
}
