//! The remote-DUT wire protocol: versioned, length-prefixed binary
//! frames over a byte stream (the stdin/stdout pipes of a `tf-cli
//! serve` child, or any other process speaking the same format).
//!
//! The protocol is program-oriented: the campaign hot loop sends one
//! [`Request::RunProgram`] per judged program (reset, load and run in
//! one round trip, answered with the [`BatchOutcome`]) and, only when a
//! run's end-of-run comparison mismatches, one [`Request::Replay`]
//! carrying the reference's recorded step stream, answered with where
//! the device first differed. A program the device refuses to load is
//! answered with [`Response::Loaded`] instead. The per-call frames
//! (`Reset`, `Load`, `Run`, `Step`, `Digest`, `TraceOn`, `TraceTake`)
//! mirror the single [`tf_arch::Dut`] methods for callers that drive
//! the device one call at a time; the differential engine does not.
//! Every frame is a record frame of the corpus format, written by the
//! same code (see [`crate::persist`]):
//!
//! ```text
//! tag u8 · payload length u32 · FNV-1a(tag·length) low byte
//!        · payload · FNV-1a(payload) u64
//! ```
//!
//! little-endian throughout. The one-byte frame check catches a corrupt
//! header before the length desynchronizes the stream; the payload
//! checksum catches corrupt bodies. Either way the connection is
//! untrustworthy afterwards and the supervisor tears it down as a
//! *desync* finding. A payload is at most 4 MiB; a replay stream that
//! would not fit is replayed with per-call frames.
//!
//! The session starts with a handshake: the server speaks first with
//! [`Response::Hello`] (protocol version, digest-scheme fingerprint,
//! DUT name), the client validates it against its own build and answers
//! with [`Request::Hello`] carrying the same version/fingerprint plus
//! its cumulative issued-batch offset — the chaos-schedule clock a
//! resumed or respawned child continues from. Version or fingerprint
//! mismatch on either side kills the session before any execution
//! state flows.

use std::io::{ErrorKind, Read, Write};

use tf_arch::digest::STABILITY_FINGERPRINT;
use tf_arch::{BatchOutcome, ReplayStop, RunExit, StepOutcome, TraceEntry, Trap};

use crate::persist::{
    checksum, frame_check, read_outcome, read_trace_entry, read_trap, write_outcome, write_record,
    write_trace_entry, write_trap, Cursor, Slice,
};

/// Wire-protocol version. Bumped on any frame-layout change; both sides
/// reject a peer speaking another version during the handshake.
/// Version 2 added the whole-program [`Request::RunProgram`] and
/// [`Request::Replay`] frames.
pub const PROTOCOL_VERSION: u32 = 2;

/// Upper bound on a frame payload. Honest peers stay below it (programs
/// are tens of instructions, traces a few hundred entries, and a longer
/// replay stream goes per call, see [`replay_fits`]); anything larger
/// is treated as a garbled stream rather than an allocation request.
const MAX_PAYLOAD: u32 = 1 << 22;

/// Whether a [`Request::Replay`] of a `words`-word program against
/// `steps` expected steps fits in one frame. Its payload is at most
/// `8 + 4 * words + 25 * steps` bytes: two counts, the words, and per
/// step an outcome (5 bytes retired, 17 trapped) and an 8-byte digest.
#[must_use]
pub(crate) fn replay_fits(words: usize, steps: usize) -> bool {
    8 + 4 * words as u64 + 25 * steps as u64 <= u64::from(MAX_PAYLOAD)
}

// Client → server frame tags.
const TAG_REQ_HELLO: u8 = 0x01;
const TAG_REQ_RESET: u8 = 0x02;
const TAG_REQ_LOAD: u8 = 0x03;
const TAG_REQ_RUN: u8 = 0x04;
const TAG_REQ_STEP: u8 = 0x05;
const TAG_REQ_DIGEST: u8 = 0x06;
const TAG_REQ_TRACE_ON: u8 = 0x07;
const TAG_REQ_TRACE_TAKE: u8 = 0x08;
const TAG_REQ_SHUTDOWN: u8 = 0x09;
const TAG_REQ_RUN_PROGRAM: u8 = 0x0A;
const TAG_REQ_REPLAY: u8 = 0x0B;

// Server → client frame tags (disjoint from request tags so a frame
// echoed into the wrong direction is caught as garbage, not misparsed).
const TAG_RSP_HELLO: u8 = 0x41;
const TAG_RSP_OK: u8 = 0x42;
const TAG_RSP_LOADED: u8 = 0x43;
const TAG_RSP_BATCH: u8 = 0x44;
const TAG_RSP_STEPPED: u8 = 0x45;
const TAG_RSP_DIGESTED: u8 = 0x46;
const TAG_RSP_TRACE: u8 = 0x47;
const TAG_RSP_REPLAYED: u8 = 0x48;

/// One client → server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Handshake reply: the client's protocol version and digest-scheme
    /// fingerprint (both must match the server's), plus the cumulative
    /// count of batches already issued to this child's lineage — `Run`
    /// frames and `RunProgram` frames whose program loaded — the offset
    /// deterministic chaos schedules resume counting from.
    Hello {
        /// [`PROTOCOL_VERSION`] of the client build.
        version: u32,
        /// [`STABILITY_FINGERPRINT`] of the client build.
        fingerprint: u64,
        /// Batches issued before this connection was (re)opened.
        batch_offset: u64,
    },
    /// [`tf_arch::Dut::reset`]. Answered with [`Response::Ok`].
    Reset,
    /// [`tf_arch::Dut::load`]: encoded instruction words to place at
    /// `base`. Answered with [`Response::Loaded`].
    Load {
        /// Load address.
        base: u64,
        /// `encode_lossy` words of the program, in order.
        words: Vec<u32>,
    },
    /// [`tf_arch::Dut::run`] — the batch frame the hot loop lives on.
    /// Answered with [`Response::Batch`].
    Run {
        /// Step budget for the batch.
        max_steps: u64,
        /// Interior digest sampling interval (`0` disables).
        digest_every: u64,
    },
    /// [`tf_arch::Dut::step`] (exact-replay path only). Answered with
    /// [`Response::Stepped`].
    Step,
    /// [`tf_arch::Dut::digest`] (exact-replay path only). Answered with
    /// [`Response::Digested`].
    Digest,
    /// [`tf_arch::Dut::enable_tracing`]. Answered with [`Response::Ok`].
    TraceOn,
    /// [`tf_arch::Dut::take_trace`]. Answered with [`Response::Trace`].
    TraceTake,
    /// Orderly goodbye; the server exits cleanly without replying.
    Shutdown,
    /// [`tf_arch::Dut::run_program`]: reset, load the words at address
    /// 0 and run — the frame the hot loop lives on. Answered with
    /// [`Response::Batch`], or with [`Response::Loaded`] carrying the
    /// trap when the device refuses the program.
    RunProgram {
        /// Step budget for the run.
        max_steps: u64,
        /// `encode_lossy` words of the program, in order.
        words: Vec<u32>,
    },
    /// [`tf_arch::Dut::replay`]: reset, load the words at address 0 and
    /// step against the expected stream. Answered with
    /// [`Response::Replayed`], or with [`Response::Loaded`] carrying
    /// the trap when the device refuses the program.
    Replay {
        /// `encode_lossy` words of the program, in order.
        words: Vec<u32>,
        /// The reference's outcome and digest after each of its steps.
        expected: Vec<(StepOutcome, u64)>,
    },
}

/// One server → client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Server-first handshake: version, fingerprint and the served
    /// DUT's [`tf_arch::Dut::name`] (which the supervisor passes
    /// through, so campaign reports name the real backend).
    Hello {
        /// [`PROTOCOL_VERSION`] of the server build.
        version: u32,
        /// [`STABILITY_FINGERPRINT`] of the server build.
        fingerprint: u64,
        /// Name of the device behind the server.
        name: String,
    },
    /// Acknowledgement for `Reset` / `TraceOn`.
    Ok,
    /// `Load` result: `None` on success, the load [`Trap`] otherwise;
    /// also `RunProgram`'s and `Replay`'s answer to a refused program.
    Loaded(Option<Trap>),
    /// `Run` and `RunProgram` result.
    Batch(BatchOutcome),
    /// `Step` result.
    Stepped(StepOutcome),
    /// `Digest` result.
    Digested(u64),
    /// `TraceTake` result.
    Trace(Option<Vec<TraceEntry>>),
    /// `Replay` result: where the device first differed, or `None`.
    Replayed(Option<ReplayStop>),
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum WireError {
    /// The underlying stream failed.
    Io(std::io::Error),
    /// The peer closed the stream cleanly at a frame boundary.
    Eof,
    /// Bytes arrived that are not a well-formed frame of the expected
    /// direction: corrupt header or checksum, truncated mid-frame,
    /// unknown tag or undecodable payload. The stream can no longer be
    /// trusted.
    Garbled(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::Eof => f.write_str("peer closed the stream"),
            WireError::Garbled(what) => write!(f, "garbled frame: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

// ---- frame layer -------------------------------------------------------

/// Send one frame — the corpus format's record frame — in a single
/// write, then flush.
fn write_frame(w: &mut impl Write, tag: u8, payload: &[u8]) -> std::io::Result<()> {
    // Six header bytes and an eight-byte checksum around the payload.
    let mut frame = Vec::with_capacity(payload.len() + 14);
    write_record(&mut frame, tag, payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Read exactly `buf.len()` bytes; a stream ending mid-read is a
/// garbled frame (the header promised more bytes than arrived).
fn read_exact_or(r: &mut impl Read, buf: &mut [u8], what: &'static str) -> Result<(), WireError> {
    r.read_exact(buf).map_err(|e| match e.kind() {
        ErrorKind::UnexpectedEof => WireError::Garbled(what),
        _ => WireError::Io(e),
    })
}

/// Read one raw frame. [`WireError::Eof`] only at a clean frame
/// boundary; any partial or inconsistent frame is [`WireError::Garbled`].
fn read_frame(r: &mut impl Read) -> Result<(u8, Vec<u8>), WireError> {
    let mut tag = [0u8; 1];
    loop {
        match r.read(&mut tag) {
            Ok(0) => return Err(WireError::Eof),
            Ok(_) => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let mut head = [0u8; 5];
    read_exact_or(r, &mut head, "truncated frame header")?;
    let len = u32::from_le_bytes(head[0..4].try_into().expect("4 bytes"));
    if head[4] != frame_check(tag[0], len) {
        return Err(WireError::Garbled("frame check mismatch"));
    }
    if len > MAX_PAYLOAD {
        return Err(WireError::Garbled("oversized frame"));
    }
    let mut payload = vec![0u8; len as usize];
    read_exact_or(r, &mut payload, "truncated payload")?;
    let mut stored = [0u8; 8];
    read_exact_or(r, &mut stored, "truncated checksum")?;
    if u64::from_le_bytes(stored) != checksum(&payload) {
        return Err(WireError::Garbled("payload checksum mismatch"));
    }
    Ok((tag[0], payload))
}

// ---- request serialization --------------------------------------------

fn write_words(c: &mut Cursor, words: &[u32]) {
    c.u32(words.len() as u32);
    words.iter().for_each(|&word| c.u32(word));
}

fn read_words(s: &mut Slice) -> Option<Vec<u32>> {
    let count = s.u32()? as usize;
    let mut words = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        words.push(s.u32()?);
    }
    Some(words)
}

/// Write one request frame (flushes, so the server sees it now).
///
/// # Errors
///
/// Propagates stream failures.
pub fn write_request(w: &mut impl Write, request: &Request) -> std::io::Result<()> {
    let mut c = Cursor::default();
    let tag = match request {
        Request::Hello {
            version,
            fingerprint,
            batch_offset,
        } => {
            c.u32(*version);
            c.u64(*fingerprint);
            c.u64(*batch_offset);
            TAG_REQ_HELLO
        }
        Request::Reset => TAG_REQ_RESET,
        Request::Load { base, words } => {
            c.u64(*base);
            write_words(&mut c, words);
            TAG_REQ_LOAD
        }
        Request::Run {
            max_steps,
            digest_every,
        } => {
            c.u64(*max_steps);
            c.u64(*digest_every);
            TAG_REQ_RUN
        }
        Request::Step => TAG_REQ_STEP,
        Request::Digest => TAG_REQ_DIGEST,
        Request::TraceOn => TAG_REQ_TRACE_ON,
        Request::TraceTake => TAG_REQ_TRACE_TAKE,
        Request::Shutdown => TAG_REQ_SHUTDOWN,
        Request::RunProgram { max_steps, words } => {
            c.u64(*max_steps);
            write_words(&mut c, words);
            TAG_REQ_RUN_PROGRAM
        }
        Request::Replay { words, expected } => {
            write_words(&mut c, words);
            c.u32(expected.len() as u32);
            for (outcome, digest) in expected {
                write_outcome(&mut c, outcome);
                c.u64(*digest);
            }
            TAG_REQ_REPLAY
        }
    };
    write_frame(w, tag, &c.bytes)
}

/// Read one request frame (the server's read loop).
///
/// # Errors
///
/// [`WireError::Eof`] when the client hung up cleanly, otherwise I/O or
/// garble classification per [`WireError`].
pub fn read_request(r: &mut impl Read) -> Result<Request, WireError> {
    let (tag, payload) = read_frame(r)?;
    let mut s = Slice::new(&payload);
    let garbled = || WireError::Garbled("undecodable request payload");
    let request = match tag {
        TAG_REQ_HELLO => Request::Hello {
            version: s.u32().ok_or_else(garbled)?,
            fingerprint: s.u64().ok_or_else(garbled)?,
            batch_offset: s.u64().ok_or_else(garbled)?,
        },
        TAG_REQ_RESET => Request::Reset,
        TAG_REQ_LOAD => Request::Load {
            base: s.u64().ok_or_else(garbled)?,
            words: read_words(&mut s).ok_or_else(garbled)?,
        },
        TAG_REQ_RUN => Request::Run {
            max_steps: s.u64().ok_or_else(garbled)?,
            digest_every: s.u64().ok_or_else(garbled)?,
        },
        TAG_REQ_STEP => Request::Step,
        TAG_REQ_DIGEST => Request::Digest,
        TAG_REQ_TRACE_ON => Request::TraceOn,
        TAG_REQ_TRACE_TAKE => Request::TraceTake,
        TAG_REQ_SHUTDOWN => Request::Shutdown,
        TAG_REQ_RUN_PROGRAM => Request::RunProgram {
            max_steps: s.u64().ok_or_else(garbled)?,
            words: read_words(&mut s).ok_or_else(garbled)?,
        },
        TAG_REQ_REPLAY => {
            let words = read_words(&mut s).ok_or_else(garbled)?;
            let count = s.u32().ok_or_else(garbled)? as usize;
            let mut expected = Vec::with_capacity(count.min(1 << 16));
            for _ in 0..count {
                let outcome = read_outcome(&mut s).ok_or_else(garbled)?;
                expected.push((outcome, s.u64().ok_or_else(garbled)?));
            }
            Request::Replay { words, expected }
        }
        _ => return Err(WireError::Garbled("unknown request tag")),
    };
    s.exhausted()
        .then_some(request)
        .ok_or(WireError::Garbled("trailing request bytes"))
}

// ---- response serialization -------------------------------------------

fn write_exit(c: &mut Cursor, exit: &RunExit) {
    match exit {
        RunExit::Breakpoint { steps } => {
            c.u8(0);
            c.u64(*steps);
        }
        RunExit::EnvironmentCall { steps } => {
            c.u8(1);
            c.u64(*steps);
        }
        RunExit::OutOfGas => {
            c.u8(2);
            c.u64(0);
        }
    }
}

fn read_exit(s: &mut Slice) -> Option<RunExit> {
    let kind = s.u8()?;
    let steps = s.u64()?;
    Some(match kind {
        0 => RunExit::Breakpoint { steps },
        1 => RunExit::EnvironmentCall { steps },
        2 => RunExit::OutOfGas,
        _ => return None,
    })
}

/// Write one response frame (flushes, so the client sees it now).
///
/// # Errors
///
/// Propagates stream failures.
pub fn write_response(w: &mut impl Write, response: &Response) -> std::io::Result<()> {
    let mut c = Cursor::default();
    let tag = match response {
        Response::Hello {
            version,
            fingerprint,
            name,
        } => {
            c.u32(*version);
            c.u64(*fingerprint);
            c.str(name);
            TAG_RSP_HELLO
        }
        Response::Ok => TAG_RSP_OK,
        Response::Loaded(trap) => {
            match trap {
                None => c.u8(0),
                Some(trap) => {
                    c.u8(1);
                    write_trap(&mut c, trap);
                }
            }
            TAG_RSP_LOADED
        }
        Response::Batch(batch) => {
            c.u64(batch.steps);
            write_exit(&mut c, &batch.exit);
            c.u64(batch.trap_causes);
            c.u32(batch.samples.len() as u32);
            batch.samples.iter().for_each(|&sample| c.u64(sample));
            c.u64(batch.pc_pairs);
            c.u64(batch.op_classes);
            TAG_RSP_BATCH
        }
        Response::Stepped(outcome) => {
            write_outcome(&mut c, outcome);
            TAG_RSP_STEPPED
        }
        Response::Digested(digest) => {
            c.u64(*digest);
            TAG_RSP_DIGESTED
        }
        Response::Trace(trace) => {
            match trace {
                None => c.u8(0),
                Some(entries) => {
                    c.u8(1);
                    c.u32(entries.len() as u32);
                    for entry in entries {
                        write_trace_entry(&mut c, Some(entry));
                    }
                }
            }
            TAG_RSP_TRACE
        }
        Response::Replayed(stop) => {
            match stop {
                None => c.u8(0),
                Some(stop) => {
                    c.u8(1);
                    c.u64(stop.step);
                    write_trace_entry(&mut c, stop.entry.as_ref());
                    c.u64(stop.digest);
                }
            }
            TAG_RSP_REPLAYED
        }
    };
    write_frame(w, tag, &c.bytes)
}

/// Read one response frame (the supervisor's reader thread).
///
/// # Errors
///
/// [`WireError::Eof`] when the server hung up cleanly, otherwise I/O or
/// garble classification per [`WireError`].
pub fn read_response(r: &mut impl Read) -> Result<Response, WireError> {
    let (tag, payload) = read_frame(r)?;
    let mut s = Slice::new(&payload);
    let garbled = || WireError::Garbled("undecodable response payload");
    let response = match tag {
        TAG_RSP_HELLO => Response::Hello {
            version: s.u32().ok_or_else(garbled)?,
            fingerprint: s.u64().ok_or_else(garbled)?,
            name: s.str().ok_or_else(garbled)?,
        },
        TAG_RSP_OK => Response::Ok,
        TAG_RSP_LOADED => {
            if s.u8().ok_or_else(garbled)? == 0 {
                Response::Loaded(None)
            } else {
                let code = s.u64().ok_or_else(garbled)?;
                let tval = s.u64().ok_or_else(garbled)?;
                Response::Loaded(Some(read_trap(code, tval).ok_or_else(garbled)?))
            }
        }
        TAG_RSP_BATCH => {
            let steps = s.u64().ok_or_else(garbled)?;
            let exit = read_exit(&mut s).ok_or_else(garbled)?;
            let trap_causes = s.u64().ok_or_else(garbled)?;
            let count = s.u32().ok_or_else(garbled)? as usize;
            let mut samples = Vec::with_capacity(count.min(1 << 16));
            for _ in 0..count {
                samples.push(s.u64().ok_or_else(garbled)?);
            }
            let pc_pairs = s.u64().ok_or_else(garbled)?;
            let op_classes = s.u64().ok_or_else(garbled)?;
            Response::Batch(BatchOutcome {
                steps,
                exit,
                trap_causes,
                samples,
                pc_pairs,
                op_classes,
            })
        }
        TAG_RSP_STEPPED => Response::Stepped(read_outcome(&mut s).ok_or_else(garbled)?),
        TAG_RSP_DIGESTED => Response::Digested(s.u64().ok_or_else(garbled)?),
        TAG_RSP_TRACE => {
            if s.u8().ok_or_else(garbled)? == 0 {
                Response::Trace(None)
            } else {
                let count = s.u32().ok_or_else(garbled)? as usize;
                let mut entries = Vec::with_capacity(count.min(1 << 16));
                for _ in 0..count {
                    entries.push(read_trace_entry(&mut s).flatten().ok_or_else(garbled)?);
                }
                Response::Trace(Some(entries))
            }
        }
        TAG_RSP_REPLAYED => Response::Replayed(if s.u8().ok_or_else(garbled)? == 0 {
            None
        } else {
            Some(ReplayStop {
                step: s.u64().ok_or_else(garbled)?,
                entry: read_trace_entry(&mut s).ok_or_else(garbled)?,
                digest: s.u64().ok_or_else(garbled)?,
            })
        }),
        _ => return Err(WireError::Garbled("unknown response tag")),
    };
    s.exhausted()
        .then_some(response)
        .ok_or(WireError::Garbled("trailing response bytes"))
}

/// Validate a peer's handshake version and digest-scheme fingerprint
/// against this build's. Used symmetrically: the client checks the
/// server's [`Response::Hello`], the server checks the client's
/// [`Request::Hello`].
///
/// # Errors
///
/// A human-readable description of the mismatch.
pub fn check_handshake(version: u32, fingerprint: u64) -> Result<(), String> {
    if version != PROTOCOL_VERSION {
        return Err(format!(
            "peer speaks protocol version {version}, this build speaks {PROTOCOL_VERSION}"
        ));
    }
    if fingerprint != STABILITY_FINGERPRINT {
        return Err(format!(
            "peer digest fingerprint {fingerprint:#018x} does not match this build's \
             {STABILITY_FINGERPRINT:#018x}"
        ));
    }
    Ok(())
}

/// Deliberately emit a frame whose payload checksum is wrong — the
/// chaos-garble injection `tf-cli serve --chaos-garble-after` uses to
/// exercise the supervisor's desync handling deterministically.
///
/// # Errors
///
/// Propagates stream failures.
pub fn write_garbled_frame(w: &mut impl Write) -> std::io::Result<()> {
    let mut frame = Vec::new();
    write_record(&mut frame, TAG_RSP_OK, b"chaos");
    // Off-by-one checksum (its low byte comes first): the frame header
    // parses, the payload does not.
    let checksum_at = frame.len() - 8;
    frame[checksum_at] ^= 1;
    w.write_all(&frame)?;
    w.flush()
}
