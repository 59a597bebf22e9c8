//! A real in-process transport with MPI/NCCL-style collectives and
//! non-blocking, overlap-friendly primitives.
//!
//! When MSRL executes a fragmented dataflow graph for real, each fragment
//! replica runs on its own thread ("device") and synchronises with the
//! collectives named by the partition annotations. [`Fabric::new`] builds
//! a fully-connected group of [`Endpoint`]s, each owning one inbox that
//! every peer pushes into (FIFO per sender); each endpoint then offers
//! `send`/`recv`, `all_gather`, `all_reduce_mean`,
//! `broadcast` and `barrier` with the same blocking semantics as the MPI
//! operations they stand in for — plus the asynchronous surface the
//! distribution policies use to *overlap* communication with computation:
//!
//! * [`Endpoint::irecv`] — a handle-based non-blocking receive. A
//!   [`PendingRecv`] is polled ([`PendingRecv::poll`]) or waited
//!   ([`PendingRecv::wait`]).
//! * [`Endpoint::all_reduce_mean_concat`] — a fused collective: extra
//!   payload segments (e.g. episode returns) ride the gradient
//!   all-reduce in a single barrier instead of paying a second one.
//! * [`Endpoint::recv_any`] — completion-order receive across several
//!   peers, for arrival-order learners (A3C, parameter servers).
//!
//! # The hand-off
//!
//! Every blocking receive — `recv`, [`PendingRecv::wait`], the
//! collectives, `recv_any` — goes through one wait primitive. It first
//! polls the inbox's per-sender `queued` atomics with `spin_loop()` for
//! at most [`SPIN_BUDGET`], then parks on the inbox's condvar. A sender
//! pushes under the inbox lock and notifies only when a receiver is
//! parked on its queue, so a rendezvous where either side arrives within
//! the budget of the other — a per-step obs/action exchange, a ping-pong
//! — costs no system call on either side, while a long wait (an actor
//! behind a learn pass) costs one bounded spin and then no CPU at all.
//!
//! The budget is a constant because its right value is a property of
//! the host, not of a workload: spinning pays off exactly while it is
//! cheaper than the futex sleep plus cross-core wake it replaces (tens
//! of microseconds on a virtualised host), and that is what 50 µs is.
//! What it can burn is bounded per wait, not per message: one budget,
//! once, before the park; a receiver woken from the park re-checks under
//! the lock and parks again without spinning. And only a group that fits
//! the host spins at all: with more endpoints (one thread each) than
//! cores, the sender a receiver waits for is as likely descheduled as
//! running and the spin takes the core it needs, so such a group parks
//! straight away — a one-core host being the plainest case.
//!
//! An optional injected latency per message reproduces the `tc`-based
//! latency experiments of the paper (Fig. 7d) in real mode. The latency
//! is modelled at the *receiver*: `send` stamps a delivery deadline and
//! returns immediately (messages are "in flight"), and the receiving
//! side sleeps out whatever remains of the deadline when it claims the
//! message. The sender therefore never blocks for the simulated wire
//! time — the property the overlap machinery depends on — and nobody
//! holds a lock across the latency simulation.
//!
//! Every operation feeds the [`msrl_telemetry`] pipeline: blocking calls
//! record `comm.*` spans when `MSRL_TRACE` is on (a [`PendingRecv::wait`]
//! records only the *residual* blocked time, which is how reclaimed
//! overlap shows up in profiles), and the always-on counters
//! `comm.bytes_sent` / `comm.bytes_recv` / `comm.msgs_sent` total traffic
//! while `comm.sim_latency_ns` attributes time spent waiting out the
//! injected latency. Each blocking site also records its latency into an
//! always-on `comm.*` histogram, so reports carry per-collective and
//! blocked-recv p50/p99 even without tracing.

use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Errors from transport operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// The destination rank does not exist.
    UnknownRank {
        /// Offending rank.
        rank: usize,
        /// Group size.
        size: usize,
    },
    /// The peer endpoint was dropped while we were waiting on it.
    Disconnected,
    /// A collective received a message with an unexpected tag — the group
    /// is executing mismatched collectives (a fragment-graph bug).
    TagMismatch {
        /// Tag we expected.
        expected: u64,
        /// Tag we received.
        actual: u64,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::UnknownRank { rank, size } => {
                write!(f, "rank {rank} out of range for group of {size}")
            }
            CommError::Disconnected => write!(f, "peer endpoint disconnected"),
            CommError::TagMismatch { expected, actual } => {
                write!(f, "collective tag mismatch: expected {expected}, got {actual}")
            }
        }
    }
}

impl std::error::Error for CommError {}

/// A message: an opaque `f32` payload, a collective tag, and the instant
/// the simulated wire delivers it (None ⇒ immediately).
#[derive(Debug, Clone)]
struct Message {
    tag: u64,
    deliver_at: Option<Instant>,
    payload: Vec<f32>,
}

/// True once the simulated wire has delivered `msg`.
fn delivered(msg: &Message) -> bool {
    msg.deliver_at.is_none_or(|at| at <= Instant::now())
}

/// Sleeps out whatever remains of `msg`'s delivery deadline, attributing
/// the waited time to `comm.sim_latency_ns`. The caller holds no locks
/// here — the message has already been dequeued.
fn wait_delivered(msg: &Message) {
    let Some(at) = msg.deliver_at else { return };
    let now = Instant::now();
    if at > now {
        let remaining = at - now;
        std::thread::sleep(remaining);
        msrl_telemetry::static_counter!("comm.sim_latency_ns").add(remaining.as_nanos() as u64);
    }
}

fn count_recv(payload: &[f32]) {
    msrl_telemetry::static_counter!("comm.bytes_recv")
        .add(payload.len() as u64 * std::mem::size_of::<f32>() as u64);
}

/// How long a blocking receive polls before it parks: of the order of
/// one futex sleep plus cross-core wake, the cost a successful spin
/// saves (see the module docs, "The hand-off"). A constant, not a knob.
pub const SPIN_BUDGET: Duration = Duration::from_micros(50);

/// Cores this process may run on. Resolved once: `available_parallelism`
/// reads the affinity mask and cgroup files.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The lock-protected half of an [`Inbox`].
struct Queues {
    /// `from[j]`: messages sent by rank `j`, oldest first.
    from: Vec<VecDeque<Message>>,
    /// `parked[j]`: receivers asleep on the condvar that a push (or the
    /// departure) of rank `j` must wake.
    parked: Vec<usize>,
    /// Parked receivers that left the computing count
    /// (`msrl_telemetry::pause_computing`) and that no wake has counted
    /// back in yet.
    paused: usize,
    /// Wakes so far: a parked receiver that finds it unchanged was woken
    /// spuriously, by no one, and counts itself back in.
    wakes: u64,
}

/// One endpoint's receive side. Every peer holds a handle and pushes
/// into its own queue; the owning endpoint and the [`PendingRecv`]s it
/// hands out claim from it.
///
/// Hand-off state machine of a blocking claim: *spin* (if `spin`;
/// lock-free, on `queued`/`gone`, at most [`SPIN_BUDGET`]) → *check*
/// (under the lock: pop a head, or report a departed sender) → *park*
/// (`parked[j] += 1` and `Condvar::wait`, which releases the lock
/// atomically) → *check* again on every wake. A sender or a dropping endpoint changes the
/// queues and reads `parked` in one critical section, so either the
/// receiver's check sees the change or the sender sees the receiver
/// parked and notifies: no wake-up can fall between the two. A parked
/// fragment thread is out of `msrl_telemetry`'s computing count (the
/// spin is not: it holds its core), and the notifying sender counts it
/// back in inside that same critical section.
struct Inbox {
    queues: Mutex<Queues>,
    ready: Condvar,
    /// `queued[j]` mirrors `queues.from[j].len()`, written under the lock
    /// and read without it by a spinning receiver.
    queued: Vec<AtomicUsize>,
    /// `gone[j]`: rank `j`'s endpoint has been dropped. `gone[owner]`
    /// closes the inbox itself, which is what senders check.
    gone: Vec<AtomicBool>,
    /// Whether a receiver polls before it parks: only while every
    /// endpoint of the group (one thread each) can have a core of its
    /// own. With more endpoints than cores the sender a receiver waits
    /// for is as likely descheduled as running, and the spin takes the
    /// core it needs.
    spin: bool,
}

impl Inbox {
    fn new(size: usize) -> Self {
        Inbox {
            queues: Mutex::new(Queues {
                from: (0..size).map(|_| VecDeque::new()).collect(),
                parked: vec![0; size],
                paused: 0,
                wakes: 0,
            }),
            ready: Condvar::new(),
            queued: (0..size).map(|_| AtomicUsize::new(0)).collect(),
            gone: (0..size).map(|_| AtomicBool::new(false)).collect(),
            spin: size <= cores(),
        }
    }

    /// Every critical section is a push, a pop or a counter update that
    /// cannot unwind half-way, so the queues are valid even if a holder
    /// panicked — and `Drop for Endpoint` must not panic on poison.
    fn lock(&self) -> MutexGuard<'_, Queues> {
        self.queues.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `change` on the queues on behalf of rank `by` and wakes the
    /// receivers parked on that rank, if any — the one place the
    /// "change and read `parked` under one lock" rule lives.
    fn update(&self, by: usize, change: impl FnOnce(&mut Queues)) {
        let mut q = self.lock();
        change(&mut q);
        let wake = q.parked[by] > 0;
        if wake {
            // The receivers this wakes compute from now on, not from when
            // they are scheduled: until then they are runnable, and a fork
            // that took their core would make them wait for it.
            q.wakes += 1;
            msrl_telemetry::resume_computing(std::mem::take(&mut q.paused));
        }
        drop(q);
        if wake {
            // All of them: two receivers parked on one rank (an endpoint
            // and a `PendingRecv` moved elsewhere) share the condvar.
            self.ready.notify_all();
        }
    }

    fn push(&self, by: usize, msg: Message) {
        self.update(by, |q| {
            q.from[by].push_back(msg);
            self.queued[by].store(q.from[by].len(), Ordering::Release);
        });
    }

    /// Marks rank `by` as departed.
    fn close(&self, by: usize) {
        self.update(by, |_| self.gone[by].store(true, Ordering::Release));
    }

    fn is_gone(&self, rank: usize) -> bool {
        self.gone[rank].load(Ordering::Acquire)
    }

    /// The first rank of `from` whose head message has cleared its
    /// delivery deadline or, failing that, the rank whose head lands
    /// soonest.
    fn pick(q: &Queues, from: &[usize]) -> Option<usize> {
        let mut soonest: Option<(Instant, usize)> = None;
        for &f in from {
            let Some(head) = q.from[f].front() else { continue };
            let Some(at) = head.deliver_at.filter(|&at| at > Instant::now()) else {
                return Some(f);
            };
            if soonest.is_none_or(|(s, _)| at < s) {
                soonest = Some((at, f));
            }
        }
        soonest.map(|(_, f)| f)
    }

    fn pop(&self, q: &mut Queues, f: usize) -> Message {
        let msg = q.from[f].pop_front().expect("picked rank has a head message");
        self.queued[f].store(q.from[f].len(), Ordering::Release);
        msg
    }

    /// Non-blocking claim from `from`: `Ok(None)` when nothing is queued
    /// or the head message is still in simulated flight (it stays at the
    /// head of its queue).
    fn try_claim(&self, from: usize) -> Result<Option<Message>, CommError> {
        let mut q = self.lock();
        match q.from[from].front().map(delivered) {
            Some(true) => Ok(Some(self.pop(&mut q, from))),
            Some(false) => Ok(None),
            None if self.is_gone(from) => Err(CommError::Disconnected),
            None => Ok(None),
        }
    }

    /// Blocking claim — the one wait primitive. Returns the next message
    /// of the first rank in `from` that has one, spinning for at most
    /// [`SPIN_BUDGET`] and then parking until one arrives; the residual
    /// simulated latency is slept out after the dequeue, holding no lock.
    /// `Disconnected` once nothing is queued and a rank of `from` is gone.
    fn claim(&self, from: &[usize]) -> Result<(usize, Message), CommError> {
        let stirred =
            || from.iter().any(|&f| self.queued[f].load(Ordering::Acquire) > 0 || self.is_gone(f));
        if self.spin && !stirred() {
            let start = Instant::now();
            while !stirred() && start.elapsed() < SPIN_BUDGET {
                std::hint::spin_loop();
            }
        }
        let mut q = self.lock();
        let f = loop {
            if let Some(f) = Self::pick(&q, from) {
                break f;
            }
            if from.iter().any(|&f| self.is_gone(f)) {
                return Err(CommError::Disconnected);
            }
            for &f in from {
                q.parked[f] += 1;
            }
            // Asleep, a fragment leaves its core to others (`par`'s forks).
            let paused = msrl_telemetry::pause_computing();
            q.paused += usize::from(paused);
            let wakes = q.wakes;
            q = self.ready.wait(q).unwrap_or_else(PoisonError::into_inner);
            if paused && q.wakes == wakes {
                q.paused -= 1;
                msrl_telemetry::resume_computing(1);
            }
            for &f in from {
                q.parked[f] -= 1;
            }
        };
        let msg = self.pop(&mut q, f);
        drop(q);
        wait_delivered(&msg);
        Ok((f, msg))
    }
}

/// A communication group factory.
pub struct Fabric;

impl Fabric {
    /// Builds a fully-connected group of `n` endpoints.
    ///
    /// Endpoint `i` can be moved to its own thread; all endpoints must
    /// participate in each collective, mirroring MPI communicator
    /// semantics.
    #[allow(clippy::new_ret_no_self)] // factory for a *group* of endpoints
    pub fn new(n: usize) -> Vec<Endpoint> {
        Self::with_latency(n, Duration::ZERO)
    }

    /// Like [`Fabric::new`], but every message takes `latency` to arrive,
    /// emulating a slow network in real executions. The latency is paid
    /// by the *receiver* when it claims the message; senders never block.
    pub fn with_latency(n: usize, latency: Duration) -> Vec<Endpoint> {
        let inboxes: Vec<Arc<Inbox>> = (0..n).map(|_| Arc::new(Inbox::new(n))).collect();
        (0..n)
            .map(|rank| Endpoint {
                rank,
                size: n,
                inboxes: inboxes.clone(),
                latency,
                next_tag: 1,
                _not_sync: PhantomData,
            })
            .collect()
    }
}

/// One participant in a communication group.
///
/// Endpoints are `Send` (movable to a device thread) but not `Sync`:
/// exactly one thread drives each endpoint, matching one-rank-per-device
/// MPI/NCCL usage.
pub struct Endpoint {
    rank: usize,
    size: usize,
    /// `inboxes[i]` is rank `i`'s inbox; `inboxes[rank]` is this
    /// endpoint's own.
    inboxes: Vec<Arc<Inbox>>,
    latency: Duration,
    next_tag: u64,
    _not_sync: PhantomData<Cell<()>>,
}

impl Drop for Endpoint {
    /// Tells every inbox — the peers' and its own — that this rank is
    /// gone, waking receivers parked on it so they report
    /// [`CommError::Disconnected`] instead of sleeping forever.
    fn drop(&mut self) {
        for inbox in &self.inboxes {
            inbox.close(self.rank);
        }
    }
}

impl Endpoint {
    /// This endpoint's rank within the group.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The group size.
    pub fn size(&self) -> usize {
        self.size
    }

    fn inbox(&self) -> &Inbox {
        &self.inboxes[self.rank]
    }

    fn advance_tag(&mut self) -> u64 {
        let t = self.next_tag;
        self.next_tag += 1;
        t
    }

    fn check_rank(&self, rank: usize) -> Result<(), CommError> {
        if rank >= self.size {
            return Err(CommError::UnknownRank { rank, size: self.size });
        }
        Ok(())
    }

    /// Sends a payload to `to`. Never blocks: inboxes are unbounded and
    /// simulated latency is paid by the receiver.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown ranks or if the peer is gone.
    pub fn send(&self, to: usize, payload: Vec<f32>) -> Result<(), CommError> {
        self.send_tagged(to, 0, payload)
    }

    fn send_tagged(&self, to: usize, tag: u64, payload: Vec<f32>) -> Result<(), CommError> {
        let _span = msrl_telemetry::span!("comm.send");
        msrl_telemetry::static_counter!("comm.msgs_sent").add(1);
        msrl_telemetry::static_counter!("comm.bytes_sent")
            .add(payload.len() as u64 * std::mem::size_of::<f32>() as u64);
        let deliver_at = (!self.latency.is_zero()).then(|| Instant::now() + self.latency);
        let inbox =
            self.inboxes.get(to).ok_or(CommError::UnknownRank { rank: to, size: self.size })?;
        if inbox.is_gone(to) {
            return Err(CommError::Disconnected);
        }
        inbox.push(self.rank, Message { tag, deliver_at, payload });
        Ok(())
    }

    /// Blocks until a payload arrives from `from`.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown ranks or if the peer is gone.
    pub fn recv(&self, from: usize) -> Result<Vec<f32>, CommError> {
        Ok(self.recv_tagged(from)?.1)
    }

    fn recv_tagged(&self, from: usize) -> Result<(u64, Vec<f32>), CommError> {
        let _span = msrl_telemetry::span!("comm.recv");
        let _hist = msrl_telemetry::static_histogram!("comm.recv").time();
        let _attr = msrl_telemetry::step(msrl_telemetry::StepClass::Comm);
        self.check_rank(from)?;
        let (_, msg) = self.inbox().claim(&[from])?;
        count_recv(&msg.payload);
        Ok((msg.tag, msg.payload))
    }

    /// Non-blocking receive from `from`; `Ok(None)` when no message is
    /// queued (or the head message is still in simulated flight). The
    /// asynchronous path A3C-style policies use.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown ranks or if the peer is gone.
    pub fn try_recv(&self, from: usize) -> Result<Option<Vec<f32>>, CommError> {
        self.check_rank(from)?;
        match self.inbox().try_claim(from)? {
            Some(msg) => {
                count_recv(&msg.payload);
                Ok(Some(msg.payload))
            }
            None => Ok(None),
        }
    }

    /// Posts a non-blocking receive from `from`, mirroring MPI `Irecv`.
    ///
    /// The returned handle claims lazily: [`PendingRecv::wait`] takes the
    /// message at the head of `from`'s queue at that moment. Posting
    /// several receives from the same peer is supported as long as the
    /// handles are waited in posting order (the drivers' usage);
    /// interleaving `recv` calls with an outstanding handle on the same
    /// peer makes message attribution depend on dequeue order.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown ranks.
    pub fn irecv(&self, from: usize) -> Result<PendingRecv, CommError> {
        self.check_rank(from)?;
        Ok(PendingRecv { from, inbox: Arc::clone(&self.inboxes[self.rank]) })
    }

    /// Blocks until a message arrives from *any* of the given peers and
    /// returns `(rank, payload)` in completion order — the arrival-order
    /// receive that A3C learners and parameter servers want. It waits
    /// like every other receive: at most [`SPIN_BUDGET`] of polling, then
    /// parked on the inbox's condvar until one of `from` pushes, so an
    /// idle learner leaves the CPU to its workers. When several peers
    /// have a message queued, the first in `from` order wins.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown ranks, or when nothing is queued and
    /// a polled peer is gone.
    pub fn recv_any(&self, from: &[usize]) -> Result<(usize, Vec<f32>), CommError> {
        let _span = msrl_telemetry::span!("comm.recv");
        let _hist = msrl_telemetry::static_histogram!("comm.recv").time();
        let _attr = msrl_telemetry::step(msrl_telemetry::StepClass::Comm);
        for &f in from {
            self.check_rank(f)?;
        }
        let (f, msg) = self.inbox().claim(from)?;
        count_recv(&msg.payload);
        Ok((f, msg.payload))
    }

    /// Receives from `from` inside a collective, checking its tag.
    fn recv_expecting(&self, from: usize, tag: u64) -> Result<Vec<f32>, CommError> {
        let (t, p) = self.recv_tagged(from)?;
        if t != tag {
            return Err(CommError::TagMismatch { expected: tag, actual: t });
        }
        Ok(p)
    }

    /// One message tagged `tag` from every peer, in rank order and indexed
    /// by rank; this rank's own slot is left empty.
    fn recv_from_peers(&self, tag: u64) -> Result<Vec<Vec<f32>>, CommError> {
        let mut out: Vec<Vec<f32>> = vec![Vec::new(); self.size];
        for (from, slot) in out.iter_mut().enumerate() {
            if from != self.rank {
                *slot = self.recv_expecting(from, tag)?;
            }
        }
        Ok(out)
    }

    /// One tagged exchange round: every rank ships `payload` to every
    /// peer and collects all contributions indexed by rank — the shared
    /// body of the collectives, kept span-free so each collective shows
    /// up in traces under exactly one name.
    fn exchange_tagged(&mut self, payload: Vec<f32>) -> Result<Vec<Vec<f32>>, CommError> {
        let tag = self.advance_tag();
        for to in 0..self.size {
            if to != self.rank {
                self.send_tagged(to, tag, payload.clone())?;
            }
        }
        let mut out = self.recv_from_peers(tag)?;
        out[self.rank] = payload;
        Ok(out)
    }

    /// AllGather: every rank contributes a payload and receives all
    /// payloads, indexed by rank. Blocks until the whole group arrives.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection or collective mismatch.
    pub fn all_gather(&mut self, payload: Vec<f32>) -> Result<Vec<Vec<f32>>, CommError> {
        let _span = msrl_telemetry::span!("comm.all_gather");
        let _hist = msrl_telemetry::static_histogram!("comm.all_gather").time();
        let _attr = msrl_telemetry::step(msrl_telemetry::StepClass::Comm);
        self.exchange_tagged(payload)
    }

    /// AllReduce with mean: element-wise average of every rank's payload.
    /// All payloads must have equal length.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection, mismatched collectives, or
    /// ragged payload lengths.
    pub fn all_reduce_mean(&mut self, payload: Vec<f32>) -> Result<Vec<f32>, CommError> {
        let _span = msrl_telemetry::span!("comm.all_reduce");
        let _hist = msrl_telemetry::static_histogram!("comm.all_reduce").time();
        let _attr = msrl_telemetry::step(msrl_telemetry::StepClass::Comm);
        let len = payload.len();
        let parts = self.exchange_tagged(payload)?;
        reduce_mean_parts(parts.iter().map(Vec::as_slice), len, self.size)
    }

    /// Fused AllReduce+AllGather in one barrier: the `reduce` segment is
    /// element-wise averaged (equal length on every rank, like
    /// [`Endpoint::all_reduce_mean`]) while the `extra` segment — any
    /// length per rank — rides the same messages and is returned gathered
    /// by rank. Distribution policies use it to ship episode returns on
    /// the gradient all-reduce instead of paying a second barrier.
    ///
    /// Wire layout per message: `[reduce_len, reduce…, extra…]`; the
    /// header is an exact `f32` for any payload under 2²⁴ elements.
    ///
    /// The averaged segment is bit-identical to the unfused
    /// `all_reduce_mean` (same rank-order accumulation), and the gathered
    /// segments match `all_gather`.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection, mismatched collectives, or
    /// ragged `reduce` lengths.
    pub fn all_reduce_mean_concat(
        &mut self,
        reduce: Vec<f32>,
        extra: Vec<f32>,
    ) -> Result<(Vec<f32>, Vec<Vec<f32>>), CommError> {
        let _span = msrl_telemetry::span!("comm.all_reduce_fused");
        let _hist = msrl_telemetry::static_histogram!("comm.all_reduce_fused").time();
        let _attr = msrl_telemetry::step(msrl_telemetry::StepClass::Comm);
        let len = reduce.len();
        let mut framed = Vec::with_capacity(1 + len + extra.len());
        framed.push(len as f32);
        framed.extend_from_slice(&reduce);
        framed.extend_from_slice(&extra);
        let parts = self.exchange_tagged(framed)?;
        let mut acc = vec![0.0f32; len];
        let mut extras = Vec::with_capacity(self.size);
        for p in &parts {
            let rlen = p.first().copied().unwrap_or(-1.0);
            if rlen != len as f32 || p.len() < 1 + len {
                return Err(CommError::TagMismatch {
                    expected: len as u64,
                    actual: rlen.max(0.0) as u64,
                });
            }
            for (a, v) in acc.iter_mut().zip(&p[1..1 + len]) {
                *a += v;
            }
            extras.push(p[1 + len..].to_vec());
        }
        let n = self.size as f32;
        for a in &mut acc {
            *a /= n;
        }
        Ok((acc, extras))
    }

    /// Broadcast from `root`: the root's payload is returned on every
    /// rank (the root passes its data; other ranks pass anything).
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection or collective mismatch.
    pub fn broadcast(&mut self, root: usize, payload: Vec<f32>) -> Result<Vec<f32>, CommError> {
        let _span = msrl_telemetry::span!("comm.broadcast");
        let _hist = msrl_telemetry::static_histogram!("comm.broadcast").time();
        let _attr = msrl_telemetry::step(msrl_telemetry::StepClass::Comm);
        self.check_rank(root)?;
        let tag = self.advance_tag();
        if self.rank == root {
            for to in 0..self.size {
                if to != root {
                    self.send_tagged(to, tag, payload.clone())?;
                }
            }
            Ok(payload)
        } else {
            self.recv_expecting(root, tag)
        }
    }

    /// Barrier: returns once every rank has entered.
    ///
    /// # Errors
    ///
    /// Returns an error on disconnection.
    pub fn barrier(&mut self) -> Result<(), CommError> {
        let _span = msrl_telemetry::span!("comm.barrier");
        let _hist = msrl_telemetry::static_histogram!("comm.barrier").time();
        let _attr = msrl_telemetry::step(msrl_telemetry::StepClass::Comm);
        self.exchange_tagged(Vec::new()).map(|_| ())
    }
}

/// Sums `parts` element-wise in rank order and divides by `size`,
/// rejecting ragged contributions — the single reduction kernel behind
/// every AllReduce variant, so fused/chunked/unfused results agree
/// bit-for-bit.
fn reduce_mean_parts<'a>(
    parts: impl Iterator<Item = &'a [f32]>,
    len: usize,
    size: usize,
) -> Result<Vec<f32>, CommError> {
    let mut acc = vec![0.0f32; len];
    for p in parts {
        if p.len() != len {
            return Err(CommError::TagMismatch { expected: len as u64, actual: p.len() as u64 });
        }
        for (a, v) in acc.iter_mut().zip(p) {
            *a += v;
        }
    }
    let n = size as f32;
    for a in &mut acc {
        *a /= n;
    }
    Ok(acc)
}

/// Handle for a posted non-blocking receive (see [`Endpoint::irecv`]).
///
/// Holds the endpoint's inbox, so it stays valid while the endpoint
/// keeps communicating; drop it to abandon the receive (the message, if
/// any, is left for the endpoint to claim).
#[must_use = "a posted receive must be polled or waited"]
pub struct PendingRecv {
    from: usize,
    inbox: Arc<Inbox>,
}

impl PendingRecv {
    /// The rank this receive was posted against.
    pub fn from_rank(&self) -> usize {
        self.from
    }

    /// Non-blocking completion check: true once a message has arrived
    /// *and* cleared its simulated delivery deadline — a subsequent
    /// [`PendingRecv::wait`] returns without blocking. The message stays
    /// queued until then.
    ///
    /// # Errors
    ///
    /// Returns an error if the peer is gone before sending.
    pub fn poll(&mut self) -> Result<bool, CommError> {
        let q = self.inbox.lock();
        match q.from[self.from].front().map(delivered) {
            Some(landed) => Ok(landed),
            None if self.inbox.is_gone(self.from) => Err(CommError::Disconnected),
            None => Ok(false),
        }
    }

    /// Completes the receive: polls for at most [`SPIN_BUDGET`] (a reply
    /// that is about to land costs no system call), then parks on the
    /// inbox's condvar until the message arrives, and sleeps out any
    /// residual simulated latency. Records only this *residual* blocked
    /// time as a `comm.recv` span: compute overlapped with the transfer
    /// does not show up as communication time.
    ///
    /// # Errors
    ///
    /// Returns an error if the peer disconnected before sending.
    pub fn wait(self) -> Result<Vec<f32>, CommError> {
        let _span = msrl_telemetry::span!("comm.recv");
        let _hist = msrl_telemetry::static_histogram!("comm.recv").time();
        let _attr = msrl_telemetry::step(msrl_telemetry::StepClass::Comm);
        let (_, msg) = self.inbox.claim(&[self.from])?;
        count_recv(&msg.payload);
        Ok(msg.payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn point_to_point_delivery() {
        let mut eps = Fabric::new(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        a.send(1, vec![1.0, 2.0]).unwrap();
        assert_eq!(b.recv(0).unwrap(), vec![1.0, 2.0]);
    }

    #[test]
    fn send_to_unknown_rank_fails() {
        let eps = Fabric::new(2);
        assert!(matches!(eps[0].send(5, vec![]), Err(CommError::UnknownRank { rank: 5, size: 2 })));
    }

    #[test]
    fn try_recv_is_nonblocking() {
        let mut eps = Fabric::new(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        assert_eq!(b.try_recv(0).unwrap(), None);
        a.send(1, vec![7.0]).unwrap();
        // Delivery through an in-process channel is immediate.
        assert_eq!(b.try_recv(0).unwrap(), Some(vec![7.0]));
    }

    #[test]
    fn irecv_poll_and_wait() {
        let mut eps = Fabric::new(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let mut pending = b.irecv(0).unwrap();
        assert!(!pending.poll().unwrap(), "nothing sent yet");
        a.send(1, vec![3.0, 4.0]).unwrap();
        assert!(pending.poll().unwrap(), "message arrived");
        assert_eq!(pending.wait().unwrap(), vec![3.0, 4.0]);
    }

    #[test]
    fn irecv_wait_parks_until_send() {
        let mut eps = Fabric::new(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let pending = b.irecv(0).unwrap();
        let h = thread::spawn(move || pending.wait().unwrap());
        thread::sleep(Duration::from_millis(20));
        a.send(1, vec![9.0]).unwrap();
        assert_eq!(h.join().unwrap(), vec![9.0]);
    }

    #[test]
    fn irecv_handles_complete_in_posting_order() {
        let mut eps = Fabric::new(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let first = b.irecv(0).unwrap();
        let second = b.irecv(0).unwrap();
        a.send(1, vec![1.0]).unwrap();
        a.send(1, vec![2.0]).unwrap();
        assert_eq!(first.wait().unwrap(), vec![1.0]);
        assert_eq!(second.wait().unwrap(), vec![2.0]);
    }

    /// CPU time this thread has consumed, where the kernel exposes it.
    fn thread_cpu() -> Option<Duration> {
        let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
        Some(Duration::from_nanos(stat.split_whitespace().next()?.parse().ok()?))
    }

    #[test]
    fn recv_any_returns_in_completion_order() {
        use std::sync::mpsc;
        let mut eps = Fabric::new(4);
        let d = eps.pop().unwrap();
        // Peers send when told to, so the completion order is the test's.
        let (cues, peers): (Vec<_>, Vec<_>) = eps
            .into_iter()
            .map(|ep| {
                let (cue, cued) = mpsc::channel::<f32>();
                let peer = thread::spawn(move || {
                    for v in cued {
                        ep.send(3, vec![v]).unwrap();
                    }
                });
                (cue, peer)
            })
            .unzip();
        for (i, &rank) in [2usize, 0, 1, 1, 2].iter().enumerate() {
            cues[rank].send(i as f32).unwrap();
            assert_eq!(d.recv_any(&[0, 1, 2]).unwrap(), (rank, vec![i as f32]));
        }
        // An idle wait is asleep, not polling: 50 ms of it costs the
        // spin budget and a wake-up, not 50 ms of CPU.
        let idle = Duration::from_millis(50);
        let (wall, cpu) = (Instant::now(), thread_cpu());
        let waker = thread::spawn(move || {
            thread::sleep(idle);
            cues[1].send(9.0).unwrap();
            cues
        });
        assert_eq!(d.recv_any(&[0, 1, 2]).unwrap(), (1, vec![9.0]));
        assert!(wall.elapsed() >= idle);
        if let (Some(before), Some(after)) = (cpu, thread_cpu()) {
            let burnt = after - before;
            assert!(burnt < Duration::from_millis(5), "idle recv_any burnt {burnt:?} of CPU");
        }
        drop(waker.join().unwrap());
        for peer in peers {
            peer.join().unwrap();
        }
    }

    /// 100 k messages through one pair of endpoints, arranged so that the
    /// receiver finds its message already queued (a burst sent before it
    /// is released), is polling when the message lands (lock-step
    /// ping-pong) and has parked (the sender pauses for several spin
    /// budgets). Whichever way a message is handed off, order holds.
    #[test]
    fn handoff_keeps_fifo_order_across_queued_spun_and_parked_receives() {
        use std::sync::{Arc, Barrier};
        const ROUNDS: usize = 1_000;
        const BURST: usize = 64;
        const LOCKSTEP: usize = 35;
        let mut eps = Fabric::new(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let burst_sent = Arc::new(Barrier::new(2));
        let echo = {
            let burst_sent = Arc::clone(&burst_sent);
            thread::spawn(move || {
                let mut next = 0.0f32;
                for _ in 0..ROUNDS {
                    burst_sent.wait();
                    for _ in 0..BURST + LOCKSTEP + 1 {
                        assert_eq!(b.recv(0).unwrap(), vec![next]);
                        b.send(0, vec![next]).unwrap();
                        next += 1.0;
                    }
                }
            })
        };
        let mut sent = 0.0f32;
        let mut echoed = 0.0f32;
        let mut expect_echo = |a: &Endpoint| {
            assert_eq!(a.recv(1).unwrap(), vec![echoed]);
            echoed += 1.0;
        };
        for _ in 0..ROUNDS {
            for _ in 0..BURST {
                a.send(1, vec![sent]).unwrap();
                sent += 1.0;
            }
            burst_sent.wait();
            for _ in 0..BURST {
                expect_echo(&a);
            }
            for _ in 0..LOCKSTEP {
                a.send(1, vec![sent]).unwrap();
                sent += 1.0;
                expect_echo(&a);
            }
            thread::sleep(4 * SPIN_BUDGET);
            a.send(1, vec![sent]).unwrap();
            sent += 1.0;
            expect_echo(&a);
        }
        echo.join().unwrap();
        assert_eq!(sent, (ROUNDS * (BURST + LOCKSTEP + 1)) as f32);
    }

    /// Four two-rank groups at once: each fits the host, so each spins,
    /// and together they are eight threads on however few cores there
    /// are — the oversubscription a group cannot see. The budget bounds
    /// what a spinner whose peer is not running can waste per wait; if
    /// it did not (a spinner holding its core until the scheduler takes
    /// it away), 1 k barriers would take minutes, not the fraction of a
    /// second they take.
    #[test]
    fn oversubscribed_barriers_do_not_convoy() {
        let start = Instant::now();
        let handles: Vec<_> = (0..4)
            .flat_map(|_| Fabric::new(2))
            .map(|mut ep| {
                thread::spawn(move || {
                    for _ in 0..1_000 {
                        ep.barrier().unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let took = start.elapsed();
        assert!(took < Duration::from_secs(10), "4 × 1000 two-rank barriers took {took:?}");
    }

    /// An endpoint dropping while its peer is anywhere between "nothing
    /// queued" and asleep must still wake it: every one of 10 k
    /// drop-vs-recv races ends in `Disconnected`, none in a hang.
    #[test]
    fn endpoint_drop_never_strands_a_receiver() {
        use std::sync::mpsc;
        let (to_receiver, handed) = mpsc::channel::<Endpoint>();
        let (report, outcomes) = mpsc::channel();
        let receiver = thread::spawn(move || {
            for ep in handed {
                report.send(ep.recv(0)).unwrap();
            }
        });
        for race in 0..10_000 {
            let mut eps = Fabric::new(2);
            to_receiver.send(eps.pop().unwrap()).unwrap();
            // Sweep the drop across the receiver's spin, check and park.
            let delay = SPIN_BUDGET * (race % 96) / 32;
            let start = Instant::now();
            while start.elapsed() < delay {
                std::hint::spin_loop();
            }
            drop(eps);
            let outcome = outcomes
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("race {race}: receiver slept through the disconnect"));
            assert_eq!(outcome, Err(CommError::Disconnected));
        }
        drop(to_receiver);
        receiver.join().unwrap();
    }

    #[test]
    fn all_gather_collects_in_rank_order() {
        let eps = Fabric::new(4);
        let handles: Vec<_> = eps
            .into_iter()
            .map(|mut ep| {
                thread::spawn(move || {
                    let mine = vec![ep.rank() as f32];
                    ep.all_gather(mine).unwrap()
                })
            })
            .collect();
        for h in handles {
            let parts = h.join().unwrap();
            assert_eq!(parts, vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
        }
    }

    #[test]
    fn all_reduce_mean_averages() {
        let eps = Fabric::new(3);
        let handles: Vec<_> = eps
            .into_iter()
            .map(|mut ep| {
                thread::spawn(move || {
                    let mine = vec![ep.rank() as f32 * 3.0, 1.0];
                    ep.all_reduce_mean(mine).unwrap()
                })
            })
            .collect();
        for h in handles {
            let avg = h.join().unwrap();
            assert_eq!(avg, vec![3.0, 1.0]); // mean of 0,3,6 and of 1,1,1
        }
    }

    #[test]
    fn fused_collective_reduces_and_gathers_in_one_round() {
        let eps = Fabric::new(3);
        let handles: Vec<_> = eps
            .into_iter()
            .map(|mut ep| {
                thread::spawn(move || {
                    let reduce = vec![ep.rank() as f32 * 3.0, 1.0];
                    let extra = vec![10.0 + ep.rank() as f32; ep.rank()]; // ragged
                    ep.all_reduce_mean_concat(reduce, extra).unwrap()
                })
            })
            .collect();
        for h in handles {
            let (avg, extras) = h.join().unwrap();
            assert_eq!(avg, vec![3.0, 1.0]);
            assert_eq!(extras, vec![vec![], vec![11.0], vec![12.0, 12.0]]);
        }
    }

    #[test]
    fn broadcast_distributes_root_payload() {
        let eps = Fabric::new(3);
        let handles: Vec<_> = eps
            .into_iter()
            .map(|mut ep| {
                thread::spawn(move || {
                    let mine = if ep.rank() == 1 { vec![42.0] } else { vec![] };
                    ep.broadcast(1, mine).unwrap()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), vec![42.0]);
        }
    }

    #[test]
    fn repeated_collectives_stay_aligned() {
        // Two back-to-back all_gathers must not interleave payloads.
        let eps = Fabric::new(2);
        let handles: Vec<_> = eps
            .into_iter()
            .map(|mut ep| {
                thread::spawn(move || {
                    let first = ep.all_gather(vec![1.0 + ep.rank() as f32]).unwrap();
                    let second = ep.all_gather(vec![10.0 + ep.rank() as f32]).unwrap();
                    (first, second)
                })
            })
            .collect();
        for h in handles {
            let (first, second) = h.join().unwrap();
            assert_eq!(first, vec![vec![1.0], vec![2.0]]);
            assert_eq!(second, vec![vec![10.0], vec![11.0]]);
        }
    }

    #[test]
    fn barrier_synchronises() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let eps = Fabric::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = eps
            .into_iter()
            .map(|mut ep| {
                let c = Arc::clone(&counter);
                thread::spawn(move || {
                    if ep.rank() != 0 {
                        // Everyone but rank 0 increments before the barrier.
                        c.fetch_add(1, Ordering::SeqCst);
                    } else {
                        // Rank 0 waits a little so laggards would be caught.
                        thread::sleep(Duration::from_millis(20));
                    }
                    ep.barrier().unwrap();
                    c.load(Ordering::SeqCst)
                })
            })
            .collect();
        for h in handles {
            // After the barrier every rank must observe all 3 increments.
            assert_eq!(h.join().unwrap(), 3);
        }
    }

    #[test]
    fn disconnect_is_reported() {
        let mut eps = Fabric::new(2);
        let b = eps.pop().unwrap();
        drop(eps); // rank 0 gone
        assert_eq!(b.recv(0), Err(CommError::Disconnected));
    }

    #[test]
    fn injected_latency_is_paid_by_the_receiver() {
        let mut eps = Fabric::with_latency(2, Duration::from_millis(30));
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let t0 = std::time::Instant::now();
        a.send(1, vec![1.0]).unwrap();
        assert!(
            t0.elapsed() < Duration::from_millis(25),
            "send must not block for the simulated wire time"
        );
        b.recv(0).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(25), "receiver waits out the latency");
    }

    #[test]
    fn try_recv_respects_in_flight_latency() {
        let mut eps = Fabric::with_latency(2, Duration::from_millis(40));
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        a.send(1, vec![6.0]).unwrap();
        assert_eq!(b.try_recv(0).unwrap(), None, "message still in simulated flight");
        thread::sleep(Duration::from_millis(50));
        assert_eq!(b.try_recv(0).unwrap(), Some(vec![6.0]));
    }

    #[test]
    fn overlapped_compute_hides_latency() {
        // An irecv posted before compute hides the simulated wire time:
        // the residual wait is latency minus the overlapped work.
        let mut eps = Fabric::with_latency(2, Duration::from_millis(40));
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        a.send(1, vec![8.0]).unwrap();
        let pending = b.irecv(0).unwrap();
        thread::sleep(Duration::from_millis(30)); // "compute"
        let t0 = std::time::Instant::now();
        assert_eq!(pending.wait().unwrap(), vec![8.0]);
        assert!(
            t0.elapsed() < Duration::from_millis(25),
            "most of the latency was hidden behind compute"
        );
    }
}
