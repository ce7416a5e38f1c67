//! Wire-protocol validation: property-style round trips over realistic
//! messages, frame rejection (truncation, corruption, wrong direction,
//! wrong version), and in-memory `serve` sessions — including the
//! deterministic chaos triggers — without spawning any process.

use std::io::Cursor;

use tf_arch::digest::STABILITY_FINGERPRINT;
use tf_arch::{Hart, StepOutcome, TraceEntry, Trap};
use tf_fuzz::prelude::*;
use tf_fuzz::proto::{
    check_handshake, read_request, read_response, write_garbled_frame, write_request,
    write_response, Request, Response, WireError, PROTOCOL_VERSION,
};
use tf_fuzz::ProgramGenerator;
use tf_riscv::{Instruction, InstructionLibrary, LibraryConfig};

const MEM: u64 = 1 << 16;

fn roundtrip_request(request: &Request) -> Request {
    let mut wire = Vec::new();
    write_request(&mut wire, request).unwrap();
    read_request(&mut Cursor::new(wire)).unwrap()
}

fn roundtrip_response(response: &Response) -> Response {
    let mut wire = Vec::new();
    write_response(&mut wire, response).unwrap();
    read_response(&mut Cursor::new(wire)).unwrap()
}

fn generated_program(seed: u64, len: usize) -> Vec<Instruction> {
    let library = InstructionLibrary::new(LibraryConfig::all(), seed);
    ProgramGenerator::new(library, seed).generate(len)
}

#[test]
fn every_request_kind_round_trips_exactly() {
    let program = generated_program(3, 24);
    let words: Vec<u32> = program.iter().map(Instruction::encode_lossy).collect();
    let requests = [
        Request::Hello {
            version: PROTOCOL_VERSION,
            fingerprint: STABILITY_FINGERPRINT,
            batch_offset: 0xDEAD_BEEF,
        },
        Request::Reset,
        Request::Load {
            base: 0x8000_0000,
            words,
        },
        Request::Load {
            base: 0,
            words: Vec::new(),
        },
        Request::Run {
            max_steps: 4096,
            digest_every: 16,
        },
        Request::Step,
        Request::Digest,
        Request::TraceOn,
        Request::TraceTake,
        Request::Shutdown,
    ];
    for request in &requests {
        assert_eq!(&roundtrip_request(request), request);
    }
    // Several frames back to back parse in order off one stream.
    let mut wire = Vec::new();
    for request in &requests {
        write_request(&mut wire, request).unwrap();
    }
    let mut stream = Cursor::new(wire);
    for request in &requests {
        assert_eq!(&read_request(&mut stream).unwrap(), request);
    }
    assert!(matches!(read_request(&mut stream), Err(WireError::Eof)));
}

#[test]
fn every_response_kind_round_trips_exactly() {
    // A real traced batch gives the trace/step/batch variants honest
    // payloads: run a generated program on the golden hart.
    let program = generated_program(7, 24);
    let mut hart = Hart::new(MEM);
    hart.enable_tracing();
    hart.load(0, &program).unwrap();
    let batch = Dut::run(&mut hart, 4096, 16);
    assert!(batch.steps > 0, "the program must actually execute");
    let trace = Dut::take_trace(&mut hart).expect("tracing was enabled");
    let entries: Vec<TraceEntry> = trace.entries().to_vec();
    assert!(!entries.is_empty());

    let responses = [
        Response::Hello {
            version: PROTOCOL_VERSION,
            fingerprint: STABILITY_FINGERPRINT,
            name: "mutant-b2".to_string(),
        },
        Response::Ok,
        Response::Loaded(None),
        Response::Loaded(Some(Trap::IllegalInstruction { word: 0xFFFF_FFFF })),
        Response::Batch(batch),
        Response::Stepped(StepOutcome::Trapped(Trap::Breakpoint { addr: 0x44 })),
        Response::Stepped(entries[0].outcome),
        Response::Digested(0x0123_4567_89AB_CDEF),
        Response::Trace(None),
        Response::Trace(Some(entries)),
    ];
    for response in &responses {
        assert_eq!(&roundtrip_response(response), response);
    }
}

/// Counts `write` calls and keeps what they wrote.
#[derive(Default)]
struct CountingWriter {
    writes: usize,
    bytes: Vec<u8>,
}

impl std::io::Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A frame is a corpus-format record frame, and it reaches the stream
/// in one write: after a corpus header, `persist` reads it back as one
/// intact record carrying the message's payload.
#[test]
fn a_frame_is_one_corpus_record_sent_in_one_write() {
    let mut request = CountingWriter::default();
    let run = Request::Run {
        max_steps: 4096,
        digest_every: 16,
    };
    write_request(&mut request, &run).unwrap();
    let run_payload = [4096u64.to_le_bytes(), 16u64.to_le_bytes()].concat();

    let mut response = CountingWriter::default();
    let trap = Trap::Breakpoint { addr: 0x44 };
    write_response(
        &mut response,
        &Response::Stepped(StepOutcome::Trapped(trap)),
    )
    .unwrap();
    let mut stepped_payload = vec![1];
    stepped_payload.extend_from_slice(&trap.cause().code().to_le_bytes());
    stepped_payload.extend_from_slice(&0x44u64.to_le_bytes());

    for (frame, payload) in [(request, run_payload), (response, stepped_payload)] {
        assert_eq!(frame.writes, 1, "{:02x?}", frame.bytes);
        // tag · length · frame check · payload · checksum
        assert_eq!(frame.bytes[1..5], (payload.len() as u32).to_le_bytes());
        assert_eq!(frame.bytes[6..frame.bytes.len() - 8], payload);
        let mut file = persist::MAGIC.to_vec();
        file.extend_from_slice(&persist::FORMAT_VERSION.to_le_bytes());
        file.extend_from_slice(&STABILITY_FINGERPRINT.to_le_bytes());
        file.extend_from_slice(&frame.bytes);
        let report = persist::load_bytes(&file).unwrap().report;
        assert_eq!((report.unknown, report.skipped), (1, 0), "{report:?}");
        assert!(!report.truncated, "{report:?}");
    }
}

#[test]
fn truncated_and_corrupted_frames_are_garbled_not_misparsed() {
    let mut wire = Vec::new();
    write_response(
        &mut wire,
        &Response::Batch(tf_arch::BatchOutcome {
            samples: vec![1, 2, 3],
            ..Default::default()
        }),
    )
    .unwrap();

    // Every proper prefix is garbled (except the empty one, a clean EOF).
    for cut in 1..wire.len() {
        let result = read_response(&mut Cursor::new(&wire[..cut]));
        assert!(
            matches!(result, Err(WireError::Garbled(_))),
            "prefix of {cut} bytes should be garbled, got {result:?}"
        );
    }
    assert!(matches!(
        read_response(&mut Cursor::new(&wire[..0])),
        Err(WireError::Eof)
    ));

    // A flipped byte anywhere is caught by the frame check (header) or
    // the payload checksum — never silently accepted as different data.
    for position in 0..wire.len() {
        let mut corrupt = wire.clone();
        corrupt[position] ^= 0x10;
        let result = read_response(&mut Cursor::new(corrupt));
        assert!(
            matches!(result, Err(WireError::Garbled(_))),
            "flip at byte {position} should be garbled, got {result:?}"
        );
    }

    // Arbitrary non-protocol bytes are garbage, not a parse.
    assert!(matches!(
        read_response(&mut Cursor::new(b"not a protocol frame at all".to_vec())),
        Err(WireError::Garbled(_))
    ));

    // Frames cross directions: a request tag is not a valid response.
    let mut request_wire = Vec::new();
    write_request(&mut request_wire, &Request::Reset).unwrap();
    assert!(matches!(
        read_response(&mut Cursor::new(request_wire.clone())),
        Err(WireError::Garbled("unknown response tag"))
    ));
    let mut response_wire = Vec::new();
    write_response(&mut response_wire, &Response::Ok).unwrap();
    assert!(matches!(
        read_request(&mut Cursor::new(response_wire)),
        Err(WireError::Garbled("unknown request tag"))
    ));

    // The deliberate chaos frame is caught by the payload checksum.
    let mut garbled = Vec::new();
    write_garbled_frame(&mut garbled).unwrap();
    assert!(matches!(
        read_response(&mut Cursor::new(garbled)),
        Err(WireError::Garbled("payload checksum mismatch"))
    ));
}

#[test]
fn handshake_rejects_version_and_fingerprint_drift() {
    assert!(check_handshake(PROTOCOL_VERSION, STABILITY_FINGERPRINT).is_ok());
    let err = check_handshake(PROTOCOL_VERSION + 1, STABILITY_FINGERPRINT).unwrap_err();
    assert!(err.contains("protocol version"), "{err}");
    let err = check_handshake(PROTOCOL_VERSION, STABILITY_FINGERPRINT ^ 0xA5).unwrap_err();
    assert!(err.contains("fingerprint"), "{err}");
}

/// Drive a full in-memory serve session: the batch a served hart
/// reports over the wire must equal the batch an identical in-process
/// hart produces directly.
#[test]
fn served_batches_match_in_process_execution_exactly() {
    let program = generated_program(11, 24);
    let words: Vec<u32> = program.iter().map(Instruction::encode_lossy).collect();

    let mut requests = Vec::new();
    write_request(
        &mut requests,
        &Request::Hello {
            version: PROTOCOL_VERSION,
            fingerprint: STABILITY_FINGERPRINT,
            batch_offset: 0,
        },
    )
    .unwrap();
    write_request(&mut requests, &Request::Reset).unwrap();
    write_request(&mut requests, &Request::Load { base: 0, words }).unwrap();
    write_request(
        &mut requests,
        &Request::Run {
            max_steps: 4096,
            digest_every: 16,
        },
    )
    .unwrap();
    write_request(&mut requests, &Request::Digest).unwrap();
    write_request(&mut requests, &Request::Shutdown).unwrap();

    let mut served = Hart::new(MEM);
    let mut output = Vec::new();
    let outcome = serve(
        &mut served,
        &ChaosConfig::default(),
        &mut Cursor::new(requests),
        &mut output,
    )
    .unwrap();
    assert_eq!(outcome, ServeOutcome::ClientShutdown);

    let mut direct = Hart::new(MEM);
    Dut::reset(&mut direct);
    direct.load(0, &program).unwrap();
    let want_batch = Dut::run(&mut direct, 4096, 16);
    let want_digest = Dut::digest(&direct);

    let mut stream = Cursor::new(output);
    assert_eq!(
        read_response(&mut stream).unwrap(),
        Response::Hello {
            version: PROTOCOL_VERSION,
            fingerprint: STABILITY_FINGERPRINT,
            name: direct.name().to_string(),
        }
    );
    assert_eq!(read_response(&mut stream).unwrap(), Response::Ok);
    assert_eq!(read_response(&mut stream).unwrap(), Response::Loaded(None));
    assert_eq!(
        read_response(&mut stream).unwrap(),
        Response::Batch(want_batch)
    );
    assert_eq!(
        read_response(&mut stream).unwrap(),
        Response::Digested(want_digest)
    );
    assert!(matches!(read_response(&mut stream), Err(WireError::Eof)));
}

#[test]
fn serve_rejects_an_incompatible_client_hello() {
    let mut requests = Vec::new();
    write_request(
        &mut requests,
        &Request::Hello {
            version: PROTOCOL_VERSION + 9,
            fingerprint: STABILITY_FINGERPRINT,
            batch_offset: 0,
        },
    )
    .unwrap();
    let mut served = Hart::new(MEM);
    let mut output = Vec::new();
    let err = serve(
        &mut served,
        &ChaosConfig::default(),
        &mut Cursor::new(requests),
        &mut output,
    )
    .unwrap_err();
    assert!(err.to_string().contains("handshake rejected"), "{err}");
}

/// Chaos crash and garble fire at the exact configured cumulative batch
/// ordinal — including when the client hello rebases the counter, the
/// mechanism that keeps respawned and resumed children from re-firing.
#[test]
fn chaos_triggers_fire_once_at_the_exact_batch_ordinal() {
    let run = Request::Run {
        max_steps: 64,
        digest_every: 0,
    };
    let session = |batch_offset: u64, runs: usize, chaos: ChaosConfig| {
        let mut requests = Vec::new();
        write_request(
            &mut requests,
            &Request::Hello {
                version: PROTOCOL_VERSION,
                fingerprint: STABILITY_FINGERPRINT,
                batch_offset,
            },
        )
        .unwrap();
        for _ in 0..runs {
            write_request(&mut requests, &run).unwrap();
        }
        write_request(&mut requests, &Request::Shutdown).unwrap();
        let mut served = Hart::new(MEM);
        let mut output = Vec::new();
        let outcome = serve(&mut served, &chaos, &mut Cursor::new(requests), &mut output);
        (outcome.unwrap(), output)
    };

    // Crash at ordinal 1: the second Run dies unanswered.
    let chaos = ChaosConfig {
        crash_after: Some(1),
        ..ChaosConfig::default()
    };
    let (outcome, output) = session(0, 3, chaos);
    assert_eq!(outcome, ServeOutcome::ChaosCrash);
    let mut stream = Cursor::new(output);
    assert!(matches!(
        read_response(&mut stream).unwrap(),
        Response::Hello { .. }
    ));
    assert!(matches!(
        read_response(&mut stream).unwrap(),
        Response::Batch(_)
    ));
    assert!(
        matches!(read_response(&mut stream), Err(WireError::Eof)),
        "the crashing batch must not be answered"
    );

    // The same schedule with the counter rebased past the ordinal never
    // fires: this is what a respawned child sees.
    let chaos = ChaosConfig {
        crash_after: Some(1),
        ..ChaosConfig::default()
    };
    let (outcome, _) = session(2, 3, chaos);
    assert_eq!(outcome, ServeOutcome::ClientShutdown);

    // Garble at ordinal 0: the first Run answers with a corrupt frame.
    let chaos = ChaosConfig {
        garble_after: Some(0),
        ..ChaosConfig::default()
    };
    let (outcome, output) = session(0, 2, chaos);
    assert_eq!(outcome, ServeOutcome::ChaosGarbled);
    let mut stream = Cursor::new(output);
    assert!(matches!(
        read_response(&mut stream).unwrap(),
        Response::Hello { .. }
    ));
    assert!(matches!(
        read_response(&mut stream),
        Err(WireError::Garbled(_))
    ));
}
