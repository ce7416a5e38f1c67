//! The fault-tolerant out-of-process DUT client: [`DutSupervisor`].
//!
//! A supervisor owns a child process speaking the [`crate::proto`]
//! frame protocol (typically `tf-cli serve …`) and presents it behind
//! the ordinary [`Dut`] trait, so campaigns difference an external
//! simulator exactly like an in-process hart. The robustness policy is
//! the point:
//!
//! * **Deadline** — every request has a wall-clock budget
//!   ([`SupervisorConfig::deadline`]); a missed deadline is a *hang*,
//!   and the child is killed.
//! * **Crash detection** — child exit, death by signal, or a cleanly
//!   closed stream mid-conversation is a *crash*, classified from the
//!   collected exit status.
//! * **Desync detection** — bytes that are not a well-formed frame (or
//!   a well-formed frame of the wrong kind) mean the stream can no
//!   longer be trusted: a *desync*, and the child is killed.
//! * **Bounded respawn with exponential backoff** — after a failure the
//!   next program's first call ([`Dut::run_program`], [`Dut::replay`] or
//!   [`Dut::reset`]) respawns a fresh child, waiting [`backoff_delay`]
//!   first; [`SupervisorConfig::max_consecutive_failures`] failures
//!   without an intervening successful response exhaust the budget and
//!   the supervisor goes permanently inert.
//! * **Graceful degradation** — failures never panic and never abort
//!   the campaign mid-verdict. The supervisor parks a
//!   [`DutFailure`] for [`Dut::take_failure`], answers everything with
//!   inert placeholders until the campaign drains it, and the campaign
//!   records the finding and keeps fuzzing on the respawned child.
//!
//! One frame per call: [`Dut::run_program`] and [`Dut::replay`] each
//! send one whole-program frame, so the differential engine crosses the
//! process boundary once per agreeing program and twice per mismatching
//! one. A replay stream too long for one frame falls back to
//! [`replay_per_call`]. The other [`Dut`] methods send one per-call
//! frame each, for callers that drive the device one call at a time.
//!
//! Determinism: the supervisor counts every batch it issues — `Run`
//! frames, and `RunProgram` frames whose program the child did not
//! refuse — ([`DutSupervisor::batches_issued`]) and hands the count to
//! each new child in the handshake, so the server's deterministic chaos
//! schedules fire at the same cumulative batch ordinal across respawns
//! *and* across checkpoint/resume.

use std::cell::RefCell;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tf_arch::{
    replay_per_call, BatchOutcome, Dut, DutFailure, DutFailureKind, ExecutionTrace, ReplayStop,
    StepOutcome, Trap,
};
use tf_riscv::Instruction;

use crate::proto::{
    check_handshake, read_response, replay_fits, write_request, Request, Response, WireError,
    PROTOCOL_VERSION,
};
use tf_arch::digest::STABILITY_FINGERPRINT;

/// Robustness policy knobs for a [`DutSupervisor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Wall-clock budget per request (the handshake included). A child
    /// that misses it is a hang and is killed.
    pub deadline: Duration,
    /// Consecutive failures (of any kind, respawn attempts included)
    /// that exhaust the respawn budget. A successful response resets
    /// the count.
    pub max_consecutive_failures: u32,
    /// Backoff before the first respawn attempt; doubles per further
    /// consecutive failure.
    pub backoff_base: Duration,
    /// Upper bound on the backoff delay.
    pub backoff_cap: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            deadline: Duration::from_secs(5),
            max_consecutive_failures: 4,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
        }
    }
}

/// The exponential-backoff schedule: before retrying after the `n`-th
/// consecutive failure (1-based) the supervisor sleeps
/// `backoff_base * 2^(n-1)`, capped at `backoff_cap`.
#[must_use]
pub fn backoff_delay(config: &SupervisorConfig, consecutive_failures: u32) -> Duration {
    let doublings = consecutive_failures.saturating_sub(1).min(16);
    config
        .backoff_base
        .saturating_mul(1 << doublings)
        .min(config.backoff_cap)
}

/// Why [`DutSupervisor::spawn`] could not bring up its first child.
/// (Failures *after* a successful spawn surface as [`DutFailure`]
/// findings instead.)
#[derive(Debug)]
pub enum SpawnError {
    /// The process could not be started at all.
    Io(std::io::Error),
    /// The child started but never completed a valid handshake.
    Handshake(String),
}

impl std::fmt::Display for SpawnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpawnError::Io(e) => write!(f, "failed to spawn dut command: {e}"),
            SpawnError::Handshake(what) => write!(f, "dut handshake failed: {what}"),
        }
    }
}

impl std::error::Error for SpawnError {}

/// A live protocol connection to one child process.
#[derive(Debug)]
struct Link {
    child: Child,
    stdin: ChildStdin,
    rx: mpsc::Receiver<Result<Response, &'static str>>,
    reader: JoinHandle<()>,
}

impl Link {
    /// Spawn `argv` and complete the handshake, passing `batch_offset`
    /// as the child's chaos-counter base. On error the child is
    /// reliably torn down.
    fn open(
        argv: &[String],
        deadline: Duration,
        batch_offset: u64,
    ) -> Result<(Link, String), SpawnError> {
        let (program, args) = argv
            .split_first()
            .ok_or_else(|| SpawnError::Handshake("empty dut command".to_string()))?;
        let mut child = Command::new(program)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(SpawnError::Io)?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let mut stdout = child.stdout.take().expect("stdout was piped");
        let (tx, rx) = mpsc::channel();
        // Pipes have no portable timeout, so a dedicated thread parses
        // frames and the supervisor waits on the channel with
        // `recv_timeout`. The thread exits on EOF (child death or
        // teardown closes the pipe) and after the first garble — a
        // desynced stream must not be re-interpreted.
        let reader = std::thread::spawn(move || loop {
            match read_response(&mut stdout) {
                Ok(response) => {
                    if tx.send(Ok(response)).is_err() {
                        return;
                    }
                }
                Err(WireError::Garbled(what)) => {
                    let _ = tx.send(Err(what));
                    return;
                }
                Err(_) => return,
            }
        });
        let mut link = Link {
            child,
            stdin,
            rx,
            reader,
        };
        match link.await_hello(deadline, batch_offset) {
            Ok(name) => Ok((link, name)),
            Err(what) => {
                link.kill();
                Err(SpawnError::Handshake(what))
            }
        }
    }

    fn await_hello(&mut self, deadline: Duration, batch_offset: u64) -> Result<String, String> {
        let name = match self.rx.recv_timeout(deadline) {
            Ok(Ok(Response::Hello {
                version,
                fingerprint,
                name,
            })) => {
                check_handshake(version, fingerprint)?;
                name
            }
            Ok(Ok(_)) => return Err("first frame was not a server hello".to_string()),
            Ok(Err(what)) => return Err(format!("garbled server hello: {what}")),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                return Err(format!("no server hello within {}ms", deadline.as_millis()))
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return Err(format!(
                    "server closed its stream before the hello ({})",
                    exit_detail(&mut self.child)
                ))
            }
        };
        write_request(
            &mut self.stdin,
            &Request::Hello {
                version: PROTOCOL_VERSION,
                fingerprint: STABILITY_FINGERPRINT,
                batch_offset,
            },
        )
        .map_err(|e| format!("could not send client hello: {e}"))?;
        Ok(name)
    }

    /// Hard teardown: kill, reap, join the reader.
    fn kill(self) {
        self.reap(Duration::ZERO);
    }

    /// Orderly teardown: ask the server to exit, then reap it.
    fn shutdown(mut self) {
        let _ = write_request(&mut self.stdin, &Request::Shutdown);
        self.reap(Duration::from_millis(100));
    }

    /// Close the child's input and give it `grace` to close its output
    /// (the reader thread then sees EOF and drops the channel's
    /// sender), discarding any frame it still sends; then kill it if it
    /// still runs, collect its exit status and join the reader.
    fn reap(self, grace: Duration) {
        let Link {
            mut child,
            stdin,
            rx,
            reader,
        } = self;
        drop(stdin);
        let until = Instant::now() + grace;
        loop {
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() || rx.recv_timeout(left).is_err() {
                break;
            }
        }
        let _ = child.kill();
        let _ = child.wait();
        let _ = reader.join();
    }
}

/// Deterministic description of how a child ended. Waits briefly for
/// the exit status to become collectable (the pipe can close a beat
/// before the process is reapable), then kills a child that closed its
/// stream while still alive.
fn exit_detail(child: &mut Child) -> String {
    for _ in 0..25 {
        match child.try_wait() {
            Ok(Some(status)) => return status_detail(status),
            Ok(None) => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => return format!("unwaitable child: {e}"),
        }
    }
    let _ = child.kill();
    let _ = child.wait();
    "closed its stream while still running".to_string()
}

fn status_detail(status: std::process::ExitStatus) -> String {
    if let Some(code) = status.code() {
        return format!("exited with code {code}");
    }
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        if let Some(signal) = status.signal() {
            return format!("killed by signal {signal}");
        }
    }
    "terminated abnormally".to_string()
}

/// Mutable supervisor state, behind a `RefCell` because
/// [`Dut::digest`] takes `&self` but a remote digest is still a
/// request/response round trip.
#[derive(Debug)]
struct Inner {
    link: Option<Link>,
    /// Batches issued across the whole child lineage: `Run` frames and
    /// `RunProgram` frames the child did not refuse.
    issued: u64,
    /// Successful respawns performed (the initial spawn not counted).
    respawns: u64,
    /// Failures since the last successful response.
    consecutive_failures: u32,
    /// Failure awaiting [`Dut::take_failure`]; while parked, every
    /// operation is inert.
    pending: Option<DutFailure>,
    /// Respawn budget exhausted: permanently inert.
    dead: bool,
}

impl Inner {
    /// Record a failure: tear the link down, park the finding, and
    /// account it against the respawn budget.
    fn fail(&mut self, config: &SupervisorConfig, kind: DutFailureKind, detail: String) {
        if let Some(link) = self.link.take() {
            link.kill();
        }
        self.consecutive_failures += 1;
        if self.consecutive_failures >= config.max_consecutive_failures {
            self.dead = true;
        }
        if self.pending.is_none() {
            self.pending = Some(DutFailure {
                kind,
                detail,
                can_continue: !self.dead,
            });
        } else if self.dead {
            if let Some(pending) = &mut self.pending {
                pending.can_continue = false;
            }
        }
    }

    /// True when requests must not be attempted.
    fn inert(&self) -> bool {
        self.dead || self.pending.is_some() || self.link.is_none()
    }

    /// One request/response round trip under the deadline. `None` means
    /// the supervisor is (or just became) inert; the caller returns an
    /// inert placeholder.
    fn transact(&mut self, config: &SupervisorConfig, request: &Request) -> Option<Response> {
        if self.inert() {
            return None;
        }
        if matches!(request, Request::Run { .. } | Request::RunProgram { .. }) {
            // Counted at issue time — a batch that kills the child still
            // consumed the server-side chaos ordinal, and respawned or
            // resumed children must continue from the frame *after* it.
            // A refused program gives its count back.
            self.issued += 1;
        }
        let link = self.link.as_mut().expect("checked by inert()");
        if let Err(e) = write_request(&mut link.stdin, request) {
            let detail = exit_detail(&mut link.child);
            let _ = e; // the exit status is the better diagnostic
            self.fail(config, DutFailureKind::Crash, detail);
            return None;
        }
        match link.rx.recv_timeout(config.deadline) {
            Ok(Ok(response)) => {
                self.consecutive_failures = 0;
                Some(response)
            }
            Ok(Err(what)) => {
                self.fail(
                    config,
                    DutFailureKind::Desync,
                    format!("garbled frame: {what}"),
                );
                None
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                self.fail(
                    config,
                    DutFailureKind::Hang,
                    format!("no response within {}ms", config.deadline.as_millis()),
                );
                None
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                let detail = exit_detail(&mut self.link.as_mut().expect("link present").child);
                self.fail(config, DutFailureKind::Crash, detail);
                None
            }
        }
    }
}

/// An out-of-process [`Dut`] behind the robustness policy described in
/// the [module docs](self).
#[derive(Debug)]
pub struct DutSupervisor {
    argv: Vec<String>,
    config: SupervisorConfig,
    /// The served DUT's name from the handshake, passed through so
    /// campaign reports (and resume identity checks) see the real
    /// backend name. Leaked once per supervisor to satisfy the trait's
    /// `&'static str`.
    name_static: &'static str,
    name: String,
    inner: RefCell<Inner>,
}

impl DutSupervisor {
    /// Spawn `argv` and complete the protocol handshake eagerly, so a
    /// mistyped command or incompatible server fails loudly up front
    /// instead of surfacing as a crash finding. `batch_offset` is the
    /// issued-batch count a resumed campaign carries over from its
    /// checkpoint (`0` for a fresh campaign).
    ///
    /// # Errors
    ///
    /// [`SpawnError`] when the child cannot be started or does not
    /// complete a compatible handshake within the deadline.
    pub fn spawn(
        argv: Vec<String>,
        config: SupervisorConfig,
        batch_offset: u64,
    ) -> Result<Self, SpawnError> {
        let (link, name) = Link::open(&argv, config.deadline, batch_offset)?;
        Ok(DutSupervisor {
            argv,
            config,
            name_static: Box::leak(name.clone().into_boxed_str()),
            name,
            inner: RefCell::new(Inner {
                link: Some(link),
                issued: batch_offset,
                respawns: 0,
                consecutive_failures: 0,
                pending: None,
                dead: false,
            }),
        })
    }

    /// Total batches issued across all children so far — the value
    /// checkpoints persist so `--resume` keeps chaos schedules aligned.
    #[must_use]
    pub fn batches_issued(&self) -> u64 {
        self.inner.borrow().issued
    }

    /// Successful respawns performed (the initial spawn not counted).
    #[must_use]
    pub fn respawns(&self) -> u64 {
        self.inner.borrow().respawns
    }

    /// True when the respawn budget is exhausted and the supervisor is
    /// permanently inert.
    #[must_use]
    pub fn is_dead(&self) -> bool {
        self.inner.borrow().dead
    }

    fn transact(&self, request: &Request) -> Option<Response> {
        self.inner.borrow_mut().transact(&self.config, request)
    }

    /// A well-formed frame of the wrong kind arrived: the stream is as
    /// untrustworthy as a garbled one.
    fn protocol_desync(&self, what: &'static str) {
        self.inner.borrow_mut().fail(
            &self.config,
            DutFailureKind::Desync,
            format!("protocol desync: {what}"),
        );
    }

    /// Bring a fresh child up when a drained failure took the last one
    /// down. Called first by every call that starts a program
    /// ([`Dut::run_program`], [`Dut::replay`], [`Dut::reset`]), the
    /// campaign's natural re-seeding point.
    fn reconnect(&self) {
        let mut inner = self.inner.borrow_mut();
        if !inner.dead && inner.pending.is_none() && inner.link.is_none() {
            self.respawn(&mut inner);
        }
    }

    /// Sleep the backoff, spawn, handshake with the lineage's
    /// issued-batch offset, and verify the served DUT is still the same
    /// device; repeat until a child is up or the budget is spent.
    fn respawn(&self, inner: &mut Inner) {
        while inner.link.is_none() && !inner.dead {
            std::thread::sleep(backoff_delay(
                &self.config,
                inner.consecutive_failures.max(1),
            ));
            match Link::open(&self.argv, self.config.deadline, inner.issued) {
                Ok((link, name)) if name == self.name => {
                    inner.link = Some(link);
                    inner.respawns += 1;
                }
                Ok((link, name)) => {
                    link.kill();
                    inner.fail(
                        &self.config,
                        DutFailureKind::Desync,
                        format!(
                            "respawned server identifies as `{name}`, expected `{}`",
                            self.name
                        ),
                    );
                }
                Err(error) => {
                    inner.fail(&self.config, DutFailureKind::Crash, error.to_string());
                }
            }
        }
    }
}

/// The placeholder a failed backend answers [`Dut::step`] with: an
/// immediate trap, guaranteed to disagree with any real reference step
/// so the exact-replay loop terminates at once. The verdict is
/// discarded anyway — the campaign drains [`Dut::take_failure`] before
/// looking at it.
const INERT_STEP: StepOutcome = StepOutcome::Trapped(Trap::Breakpoint { addr: 0 });

/// The placeholder a failed backend answers [`Dut::replay`] with: a
/// difference at the first step, with no trace entry and the inert
/// digest — where a replay over [`INERT_STEP`] stops.
const INERT_STOP: ReplayStop = ReplayStop {
    step: 1,
    entry: None,
    digest: 0,
};

impl Dut for DutSupervisor {
    fn name(&self) -> &'static str {
        self.name_static
    }

    fn remote_stats(&self) -> Option<tf_arch::RemoteDutStats> {
        Some(tf_arch::RemoteDutStats {
            batches_issued: self.batches_issued(),
            respawns: self.respawns(),
            dead: self.is_dead(),
        })
    }

    fn reset(&mut self) {
        self.reconnect();
        match self.transact(&Request::Reset) {
            Some(Response::Ok) | None => {}
            Some(_) => self.protocol_desync("unexpected response to reset"),
        }
    }

    fn load(&mut self, base: u64, program: &[Instruction]) -> Result<(), Trap> {
        let words = program.iter().map(Instruction::encode_lossy).collect();
        match self.transact(&Request::Load { base, words }) {
            Some(Response::Loaded(None)) | None => Ok(()),
            Some(Response::Loaded(Some(trap))) => Err(trap),
            Some(_) => {
                self.protocol_desync("unexpected response to load");
                Ok(())
            }
        }
    }

    fn step(&mut self) -> StepOutcome {
        match self.transact(&Request::Step) {
            Some(Response::Stepped(outcome)) => outcome,
            None => INERT_STEP,
            Some(_) => {
                self.protocol_desync("unexpected response to step");
                INERT_STEP
            }
        }
    }

    fn digest(&self) -> u64 {
        match self.transact(&Request::Digest) {
            Some(Response::Digested(digest)) => digest,
            None => 0,
            Some(_) => {
                self.protocol_desync("unexpected response to digest");
                0
            }
        }
    }

    fn enable_tracing(&mut self) {
        match self.transact(&Request::TraceOn) {
            Some(Response::Ok) | None => {}
            Some(_) => self.protocol_desync("unexpected response to trace-on"),
        }
    }

    fn take_trace(&mut self) -> Option<ExecutionTrace> {
        match self.transact(&Request::TraceTake) {
            Some(Response::Trace(Some(entries))) => Some(ExecutionTrace::from_entries(entries)),
            Some(Response::Trace(None)) | None => None,
            Some(_) => {
                self.protocol_desync("unexpected response to trace-take");
                None
            }
        }
    }

    fn take_failure(&mut self) -> Option<DutFailure> {
        self.inner.borrow_mut().pending.take()
    }

    /// Failed batches read as the inert placeholder: zero steps and no
    /// samples can never equal a real reference outcome (which always
    /// carries a final sample), so the run is a mismatch whose verdict
    /// the campaign discards after draining the failure.
    fn run_into(&mut self, max_steps: u64, digest_every: u64, out: &mut BatchOutcome) {
        *out = match self.transact(&Request::Run {
            max_steps,
            digest_every,
        }) {
            Some(Response::Batch(batch)) => batch,
            None => BatchOutcome::default(),
            Some(_) => {
                self.protocol_desync("unexpected response to run");
                BatchOutcome::default()
            }
        };
    }

    /// One `RunProgram` frame. A failed run reads as [`Dut::run_into`]'s
    /// inert placeholder.
    fn run_program(
        &mut self,
        program: &[Instruction],
        max_steps: u64,
        out: &mut BatchOutcome,
    ) -> Result<(), Trap> {
        self.reconnect();
        let words = program.iter().map(Instruction::encode_lossy).collect();
        *out = match self.transact(&Request::RunProgram { max_steps, words }) {
            Some(Response::Batch(batch)) => batch,
            Some(Response::Loaded(Some(trap))) => {
                self.inner.borrow_mut().issued -= 1;
                return Err(trap);
            }
            None => BatchOutcome::default(),
            Some(_) => {
                self.protocol_desync("unexpected response to run-program");
                BatchOutcome::default()
            }
        };
        Ok(())
    }

    /// One `Replay` frame, or [`replay_per_call`] when the stream does
    /// not fit in one. A failed replay stops at the first step, with no
    /// trace entry and digest 0; a stop outside the expected stream is
    /// a desync.
    fn replay(
        &mut self,
        program: &[Instruction],
        expected: &[(StepOutcome, u64)],
    ) -> Result<Option<ReplayStop>, Trap> {
        if !replay_fits(program.len(), expected.len()) {
            return replay_per_call(self, program, expected);
        }
        self.reconnect();
        let request = Request::Replay {
            words: program.iter().map(Instruction::encode_lossy).collect(),
            expected: expected.to_vec(),
        };
        let steps = 1..=expected.len() as u64;
        match self.transact(&request) {
            Some(Response::Replayed(stop))
                if stop.as_ref().is_none_or(|stop| steps.contains(&stop.step)) =>
            {
                Ok(stop)
            }
            Some(Response::Loaded(Some(trap))) => Err(trap),
            None => Ok(Some(INERT_STOP)),
            Some(_) => {
                self.protocol_desync("unexpected response to replay");
                Ok(Some(INERT_STOP))
            }
        }
    }
}

impl Drop for DutSupervisor {
    fn drop(&mut self) {
        if let Some(link) = self.inner.borrow_mut().link.take() {
            link.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_from_base_and_saturates_at_the_cap() {
        let config = SupervisorConfig {
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            ..SupervisorConfig::default()
        };
        let schedule: Vec<Duration> = (1..=8).map(|n| backoff_delay(&config, n)).collect();
        assert_eq!(
            schedule,
            [50, 100, 200, 400, 800, 1600, 2000, 2000]
                .into_iter()
                .map(Duration::from_millis)
                .collect::<Vec<_>>()
        );
        // Degenerate inputs stay sane: zero failures behaves like one,
        // and absurd counts do not overflow.
        assert_eq!(backoff_delay(&config, 0), Duration::from_millis(50));
        assert_eq!(backoff_delay(&config, u32::MAX), Duration::from_secs(2));
    }

    #[test]
    fn spawning_a_nonexistent_command_is_a_clean_error() {
        let err = DutSupervisor::spawn(
            vec!["/nonexistent/tf-dut-binary".to_string()],
            SupervisorConfig::default(),
            0,
        )
        .unwrap_err();
        assert!(matches!(err, SpawnError::Io(_)), "{err}");
        assert!(err.to_string().contains("failed to spawn"));
    }

    #[test]
    fn an_empty_argv_is_rejected_before_spawning() {
        let err = DutSupervisor::spawn(Vec::new(), SupervisorConfig::default(), 0).unwrap_err();
        assert!(err.to_string().contains("empty dut command"), "{err}");
    }
}
