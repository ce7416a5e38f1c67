//! The server side of the remote-DUT protocol: run any in-process
//! [`Dut`] behind [`crate::proto`] frames on a byte stream — what
//! `tf-cli serve [--mutant <scenario>]` wraps around stdin/stdout.
//!
//! Besides the honest path, the server carries deterministic
//! fault-injection ([`ChaosConfig`]): at a configured cumulative batch
//! ordinal it crashes, hangs or garbles its stream *once*, making every
//! supervisor failure path — deadline, kill, respawn, backoff, finding
//! capture — hermetically and bit-deterministically testable with no
//! external simulator. The triggers count `Run` frames across the whole
//! child *lineage*: the client's handshake carries the number of
//! batches already issued (to previous incarnations, or before a
//! checkpoint), so a respawned or resumed child continues the count
//! instead of re-firing the same fault forever.

use std::io::{Read, Write};

use tf_arch::{BatchOutcome, Dut, Trap};
use tf_riscv::Instruction;

use crate::proto::{
    check_handshake, read_request, write_response, Request, Response, WireError, PROTOCOL_VERSION,
};
use tf_arch::digest::STABILITY_FINGERPRINT;

/// Deterministic fault-injection schedule, counted in cumulative `Run`
/// batches (0-based). Each trigger fires at most once per campaign:
/// when the counter *equals* the configured ordinal. When several
/// triggers name the same ordinal, crash wins over hang over garble.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Exit abruptly (without answering) at this batch ordinal.
    pub crash_after: Option<u64>,
    /// Stop answering (sleep forever) at this batch ordinal.
    pub hang_after: Option<u64>,
    /// Send a checksum-corrupted frame at this batch ordinal, then exit.
    pub garble_after: Option<u64>,
}

/// How a [`serve`] session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOutcome {
    /// The client sent an orderly [`Request::Shutdown`].
    ClientShutdown,
    /// The client closed the stream without a shutdown frame (the
    /// supervisor was killed, or simply dropped the child).
    ClientEof,
    /// A scheduled chaos crash fired: the caller should exit abruptly
    /// with a distinctive status, *without* flushing anything further.
    ChaosCrash,
    /// A scheduled chaos garble fired: the corrupt frame is already
    /// written and the caller should exit.
    ChaosGarbled,
}

/// Why a [`serve`] session failed (all fatal: the caller reports the
/// error and exits nonzero).
#[derive(Debug)]
pub enum ServeError {
    /// Writing a response failed.
    Io(std::io::Error),
    /// The client's byte stream is not well-formed protocol.
    Wire(WireError),
    /// The client's handshake named an incompatible version or digest
    /// fingerprint.
    Handshake(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve i/o error: {e}"),
            ServeError::Wire(e) => write!(f, "serve protocol error: {e}"),
            ServeError::Handshake(what) => write!(f, "serve handshake rejected: {what}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// Serve `dut` over the wire protocol until the client hangs up or a
/// chaos trigger fires. Speaks first (the server hello), then answers
/// requests one-for-one. Never writes anything to the stream that is
/// not a protocol frame.
///
/// # Errors
///
/// Fatal session failures only — a malformed client stream, a rejected
/// handshake, or I/O errors. A clean client EOF is *not* an error.
pub fn serve(
    dut: &mut dyn Dut,
    chaos: &ChaosConfig,
    input: &mut impl Read,
    output: &mut impl Write,
) -> Result<ServeOutcome, ServeError> {
    write_response(
        output,
        &Response::Hello {
            version: PROTOCOL_VERSION,
            fingerprint: STABILITY_FINGERPRINT,
            name: dut.name().to_string(),
        },
    )?;
    // Cumulative `Run` ordinal across the child lineage; the client's
    // hello rebases it for respawned/resumed children.
    let mut batches: u64 = 0;
    let mut scratch = BatchOutcome::default();
    loop {
        let request = match read_request(input) {
            Ok(request) => request,
            Err(WireError::Eof) => return Ok(ServeOutcome::ClientEof),
            Err(e) => return Err(ServeError::Wire(e)),
        };
        match request {
            Request::Hello {
                version,
                fingerprint,
                batch_offset,
            } => {
                check_handshake(version, fingerprint).map_err(ServeError::Handshake)?;
                batches = batch_offset;
            }
            Request::Reset => {
                dut.reset();
                write_response(output, &Response::Ok)?;
            }
            Request::Load { base, words } => {
                let response = match decode_program(&words) {
                    Ok(program) => Response::Loaded(dut.load(base, &program).err()),
                    Err(trap) => Response::Loaded(Some(trap)),
                };
                write_response(output, &response)?;
            }
            Request::Run {
                max_steps,
                digest_every,
            } => {
                if chaos.crash_after == Some(batches) {
                    return Ok(ServeOutcome::ChaosCrash);
                }
                if chaos.hang_after == Some(batches) {
                    // Deliberately wedge: the supervisor's deadline must
                    // fire and kill this process.
                    loop {
                        std::thread::sleep(std::time::Duration::from_secs(3600));
                    }
                }
                if chaos.garble_after == Some(batches) {
                    crate::proto::write_garbled_frame(output)?;
                    return Ok(ServeOutcome::ChaosGarbled);
                }
                batches += 1;
                dut.run_into(max_steps, digest_every, &mut scratch);
                write_response(output, &Response::Batch(scratch.clone()))?;
            }
            Request::Step => {
                write_response(output, &Response::Stepped(dut.step()))?;
            }
            Request::Digest => {
                write_response(output, &Response::Digested(dut.digest()))?;
            }
            Request::TraceOn => {
                dut.enable_tracing();
                write_response(output, &Response::Ok)?;
            }
            Request::TraceTake => {
                let entries = dut.take_trace().map(|t| t.entries().to_vec());
                write_response(output, &Response::Trace(entries))?;
            }
            Request::Shutdown => return Ok(ServeOutcome::ClientShutdown),
        }
    }
}

/// Decode wire words back into instructions. An undecodable word is
/// answered as the illegal-instruction trap its fetch would raise.
fn decode_program(words: &[u32]) -> Result<Vec<Instruction>, Trap> {
    words
        .iter()
        .map(|&word| Instruction::decode(word).map_err(|_| Trap::IllegalInstruction { word }))
        .collect()
}
