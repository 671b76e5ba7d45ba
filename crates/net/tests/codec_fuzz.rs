//! Payload-decoder fuzzing: `decode_request` and `decode_response`
//! must return `Ok` or a typed `Err` for any bytes — arbitrary ones,
//! every single-byte mutation and every truncation of a valid encoding
//! of each variant — and never panic, nor allocate for a count the
//! payload cannot back.
//!
//! Case count honors `PROPTEST_CASES` (CI runs 256).

use proptest::collection::vec as prop_vec;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use qcluster_net::{decode_request, decode_response, encode_request, encode_response, FrameError};
use qcluster_service::{Request, Response, Service, ServiceConfig};

mod samples;

/// The global allocator, recording the largest single request each
/// thread makes.
struct Tracking;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

/// Runs `f` and returns its result with the largest single allocation
/// this thread made meanwhile.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// Decodes `bytes` both ways; each must finish with a value or a typed
/// payload error.
fn decode_both(bytes: &[u8]) {
    for result in [
        decode_request(bytes).map(drop),
        decode_response(bytes).map(drop),
    ] {
        if let Err(e) = result {
            assert!(matches!(e, FrameError::Payload(_)), "{e:?}");
            assert!(!e.is_fatal());
        }
    }
}

/// One valid request encoding per variant (and per query-spec variant).
fn requests() -> Vec<Vec<u8>> {
    samples::requests().iter().map(encode_request).collect()
}

/// A valid `Stats` response: a tag, a length and a snapshot's JSON.
fn stats_response() -> Vec<u8> {
    let service = Service::new(&[vec![0.0, 1.0], vec![1.0, 0.0]], ServiceConfig::default());
    encode_response(&Response::Stats(Box::new(service.unwrap().stats())))
}

/// One valid response encoding per variant but `Stats` (and per error
/// variant).
fn responses() -> Vec<Vec<u8>> {
    let errors = samples::errors().into_iter().map(Response::Error);
    samples::responses()
        .into_iter()
        .chain(errors)
        .map(|r| encode_response(&r))
        .collect()
}

/// Every truncation of `valid`, and every value at each position
/// below `every_value_below` (each bit flipped beyond it).
fn mutate_and_truncate(valid: &[u8], every_value_below: usize) {
    for cut in 0..valid.len() {
        decode_both(&valid[..cut]);
    }
    let mut mutated = valid.to_vec();
    for pos in 0..valid.len() {
        if pos < every_value_below {
            for byte in 0..=u8::MAX {
                mutated[pos] = byte;
                decode_both(&mutated);
            }
        } else {
            for bit in 0..8 {
                mutated[pos] = valid[pos] ^ (1 << bit);
                decode_both(&mutated);
            }
        }
        mutated[pos] = valid[pos];
    }
}

#[test]
fn every_mutation_and_truncation_of_a_valid_encoding_decodes_or_errs() {
    for valid in requests().into_iter().chain(responses()) {
        mutate_and_truncate(&valid, usize::MAX);
    }
}

/// Past its tag and length, a `Stats` payload is JSON text for
/// `serde_json`; its bytes take every single-bit flip.
#[test]
fn every_mutation_and_truncation_of_a_stats_response_decodes_or_errs() {
    mutate_and_truncate(&stats_response(), 5);
}

#[test]
fn a_truncated_or_extended_encoding_is_a_payload_error() {
    for valid in requests() {
        assert!(decode_request(&valid).is_ok());
        for cut in 0..valid.len() {
            assert!(decode_request(&valid[..cut]).is_err(), "cut at {cut}");
        }
        let mut long = valid.clone();
        long.push(0);
        assert!(decode_request(&long).is_err(), "a trailing byte");
    }
    for valid in responses().into_iter().chain([stats_response()]) {
        assert!(decode_response(&valid).is_ok());
        for cut in 0..valid.len() {
            assert!(decode_response(&valid[..cut]).is_err(), "cut at {cut}");
        }
        let mut long = valid.clone();
        long.push(0);
        assert!(decode_response(&long).is_err(), "a trailing byte");
    }
}

#[test]
fn a_count_past_the_payload_fails_before_any_allocation() {
    const HUGE: [u8; 4] = u32::MAX.to_le_bytes();
    let session = 3u64.to_le_bytes();
    let request_heads: [&[&[u8]]; 9] = [
        &[&[1, 1], &HUGE],                       // CreateSession engine
        &[&[2], &session, &[0; 8], &[1], &HUGE], // Query vector
        &[&[3], &session, &HUGE],                // Feed ids
        &[&[5], &HUGE],                          // Ingest vector
        &[&[8], &HUGE],                          // FetchVectors ids
        &[&[9], &session, &HUGE],                // FeedPoints points
        &[&[10, 4], &HUGE],                      // Disjunctive representatives
        &[&[10, 5], &HUGE],                      // MultiPoint points
        &[&[12], &[0; 16], &HUGE],               // ReplApply frames
    ];
    let response_heads: [&[&[u8]]; 7] = [
        &[&[2], &session, &HUGE],  // Neighbors
        &[&[14], &HUGE],           // Scanned neighbors
        &[&[14], &[0; 4], &HUGE],  // Scanned vectors
        &[&[7], &HUGE],            // Stats snapshot
        &[&[8], &HUGE],            // Vectors
        &[&[9, 5], &HUGE],         // InvalidRequest message
        &[&[10], &session, &HUGE], // Chunk frames
    ];
    for (heads, decode) in [
        (
            &request_heads[..],
            (|b: &[u8]| decode_request(b).map(drop)) as fn(&[u8]) -> _,
        ),
        (&response_heads[..], |b: &[u8]| decode_response(b).map(drop)),
    ] {
        for head in heads {
            // Sixty-four bytes follow the count: far fewer than it claims.
            let bytes: Vec<u8> = head.concat().into_iter().chain([0u8; 64]).collect();
            let (result, largest) = largest_allocation(|| decode(&bytes));
            assert!(result.is_err(), "{bytes:?}");
            assert!(
                largest <= 256,
                "{bytes:?} allocated {largest} bytes before failing"
            );
        }
    }
}

/// Hand-made damage to the replication variants: an unknown tag, a
/// truncated fetch or vote, a frames length past the payload, a
/// trailing byte, a bool byte of 7, a truncated stale-term error. Each
/// is a recoverable payload error.
#[test]
fn malformed_payloads_are_recoverable_payload_errors() {
    let mut apply_overrun = vec![12u8];
    apply_overrun.extend_from_slice(&[0; 16]); // term + lease_ms
    apply_overrun.extend_from_slice(&[0xFF, 0xFF, 0xFF, 0xFF]); // frames len
    let mut status_trailing = encode_request(&Request::ReplStatus);
    status_trailing.push(0);
    let mut bad_leased = encode_response(&Response::ReplStatus {
        total: 1,
        durable: 1,
        term: 1,
        leased: false,
    });
    *bad_leased.last_mut().unwrap() = 7;
    let requests: [&[u8]; 6] = [
        &[],
        &[99],       // unknown tag
        &[11, 0, 0], // fetch truncated
        &apply_overrun,
        &[14, 1, 0], // vote truncated
        &status_trailing,
    ];
    let responses: [&[u8]; 4] = [
        &[99],
        &bad_leased,
        &[13, 2],       // voted: bool byte 2
        &[9, 12, 0, 0], // stale term truncated
    ];
    let results = requests
        .iter()
        .map(|b| (*b, decode_request(b).map(drop)))
        .chain(responses.iter().map(|b| (*b, decode_response(b).map(drop))));
    for (bytes, result) in results {
        let err = result.unwrap_err();
        assert!(matches!(err, FrameError::Payload(_)), "{bytes:?} -> {err}");
        assert!(!err.is_fatal(), "{bytes:?} -> {err}");
    }
}

proptest! {
    /// Arbitrary bytes: a value or a typed payload error, and no
    /// allocation beyond a small multiple of the input.
    #[test]
    fn random_bytes_never_panic_the_payload_decoders(bytes in prop_vec(any::<u8>(), 0..512)) {
        let ((), largest) = largest_allocation(|| decode_both(&bytes));
        prop_assert!(largest <= 1024 + 32 * bytes.len(), "{largest} bytes");
    }

    /// Arbitrary bytes behind a valid tag, so decoding reaches past the
    /// first byte into each variant's fields.
    #[test]
    fn random_fields_behind_every_tag_never_panic(
        tags in prop_vec(1u8..15, 1..4),
        tail in prop_vec(any::<u8>(), 0..256),
    ) {
        let bytes: Vec<u8> = tags.into_iter().chain(tail).collect();
        let ((), largest) = largest_allocation(|| decode_both(&bytes));
        prop_assert!(largest <= 1024 + 32 * bytes.len(), "{largest} bytes");
    }
}
