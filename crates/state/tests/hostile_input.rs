//! Property-based tests of the state readers on hostile input: a
//! checkpoint file or a state blob that was truncated, had a byte flipped,
//! or is random bytes fails with a typed `StateError` and never panics,
//! and a length or arity prefix that claims more than the input holds is
//! refused before anything is allocated for it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;

use hmts_state::{crc32, BlobReader, BlobWriter, Checkpoint, StateBlob, StateError};
use hmts_streams::element::Element;
use hmts_streams::time::Timestamp;
use hmts_streams::tuple::Tuple;
use hmts_streams::value::Value;

thread_local! {
    /// Bytes this thread asked the allocator for.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the counter is a
// thread-local `Cell` with a const initialiser, which neither allocates nor
// registers a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.with(|a| a.set(a.get() + layout.size()));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.with(|a| a.set(a.get() + new_size));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes this thread allocated while running `f`, and what `f` returned.
fn allocated_during<T>(f: impl FnOnce() -> T) -> (usize, T) {
    ALLOCATED.with(|a| a.set(0));
    let out = f();
    (ALLOCATED.with(Cell::get), out)
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        "[a-z0-9 äλ]{0,8}".prop_map(|s| Value::from(s.as_str())),
    ]
}

fn arb_tuple() -> impl Strategy<Value = Tuple> {
    proptest::collection::vec(arb_value(), 0..5).prop_map(Tuple::new)
}

/// One item an operator writes into its blob.
#[derive(Debug, Clone)]
enum Item {
    Value(Value),
    Tuple(Tuple),
    Element(Element),
    Count(u64),
}

fn arb_item() -> impl Strategy<Value = Item> {
    prop_oneof![
        arb_value().prop_map(Item::Value),
        arb_tuple().prop_map(Item::Tuple),
        (arb_tuple(), any::<u64>())
            .prop_map(|(t, ts)| Item::Element(Element::new(t, Timestamp::from_micros(ts)))),
        any::<u64>().prop_map(Item::Count),
    ]
}

fn blob_of(version: u16, items: &[Item]) -> StateBlob {
    StateBlob::build(version, |w| {
        for item in items {
            match item {
                Item::Value(v) => w.put_value(v),
                Item::Tuple(t) => w.put_tuple(t),
                Item::Element(e) => w.put_element(e),
                Item::Count(n) => w.put_u64(*n),
            }
        }
    })
}

fn arb_blob() -> impl Strategy<Value = StateBlob> {
    (any::<u16>(), proptest::collection::vec(arb_item(), 0..6))
        .prop_map(|(version, items)| blob_of(version, &items))
}

fn arb_checkpoint() -> impl Strategy<Value = Checkpoint> {
    (
        any::<u64>(),
        proptest::collection::vec(("[a-z_]{0,8}", arb_blob()), 0..4),
        proptest::collection::vec(("[a-z_]{0,8}", any::<u64>()), 0..4),
    )
        .prop_map(|(id, operators, sources)| Checkpoint { id, operators, sources })
}

fn container(blob: &StateBlob) -> Vec<u8> {
    let mut w = BlobWriter::new();
    blob.encode_into(&mut w);
    w.finish()
}

fn decode_container(bytes: &[u8]) -> Result<StateBlob, StateError> {
    let mut r = BlobReader::new(bytes);
    let blob = StateBlob::decode_from(&mut r)?;
    r.expect_end()?;
    Ok(blob)
}

/// Reads `bytes` as a payload of the given item kinds, in turn, until one
/// fails or the payload ends.
fn read_items(bytes: &[u8], kinds: &[u8]) -> Result<(), StateError> {
    let mut r = BlobReader::new(bytes);
    for kind in kinds.iter().cycle() {
        if r.remaining() == 0 {
            return Ok(());
        }
        match kind % 4 {
            0 => drop(r.value()?),
            1 => drop(r.tuple()?),
            2 => drop(r.element()?),
            _ => drop(r.u64()?),
        }
    }
    Ok(())
}

/// The head of an encoded checkpoint: magic, version 1, an id.
fn checkpoint_head() -> Vec<u8> {
    let mut bytes = b"HMCK".to_vec();
    bytes.extend_from_slice(&1u16.to_le_bytes());
    bytes.extend_from_slice(&7u64.to_le_bytes());
    bytes
}

/// `body` with its CRC-32 appended, as `Checkpoint::encode` seals a file.
fn sealed(mut body: Vec<u8>) -> Vec<u8> {
    let crc = crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    body
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn checkpoints_and_blobs_round_trip(ck in arb_checkpoint(), blob in arb_blob()) {
        let bytes = ck.encode();
        prop_assert_eq!(Checkpoint::decode(&bytes).unwrap().encode(), bytes);
        prop_assert_eq!(decode_container(&container(&blob)).unwrap(), blob);
    }

    #[test]
    fn every_truncation_is_a_typed_error(
        ck in arb_checkpoint(),
        blob in arb_blob(),
        cut in any::<usize>(),
    ) {
        let bytes = ck.encode();
        prop_assert!(Checkpoint::decode(&bytes[..cut % bytes.len()]).is_err());
        let bytes = container(&blob);
        let cut = cut % bytes.len();
        prop_assert!(
            matches!(decode_container(&bytes[..cut]), Err(StateError::UnexpectedEof)),
            "cut at {}", cut
        );
    }

    #[test]
    fn a_corrupted_byte_is_a_typed_error(
        ck in arb_checkpoint(),
        blob in arb_blob(),
        pos in any::<usize>(),
        xor in 1u8..=255,
    ) {
        // The trailing CRC-32 covers every other byte of a checkpoint, and
        // it catches any error confined to one byte.
        let mut bytes = ck.encode();
        let at = pos % bytes.len();
        bytes[at] ^= xor;
        prop_assert!(Checkpoint::decode(&bytes).is_err(), "byte {} ^ {:#x}", at, xor);
        // A blob's CRC covers its payload; the version bytes it does not
        // cover decode as another version, which the restoring operator
        // refuses (`reader_for`).
        let mut bytes = container(&blob);
        let at = pos % bytes.len();
        bytes[at] ^= xor;
        if let Ok(back) = decode_container(&bytes) {
            prop_assert!((4..6).contains(&at), "byte {} ^ {:#x} went unnoticed", at, xor);
            prop_assert_eq!(back.payload(), blob.payload());
            prop_assert!(back.reader_for(blob.version()).is_err());
        }
    }

    #[test]
    fn random_bytes_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
        kinds in proptest::collection::vec(any::<u8>(), 1..8),
    ) {
        let _ = Checkpoint::decode(&bytes);
        let _ = decode_container(&bytes);
        let _ = read_items(&bytes, &kinds);
        // Sealed, random bytes behind a valid head get past the CRC and
        // the magic into the parser proper.
        let mut body = checkpoint_head();
        body.extend_from_slice(&bytes);
        if let Ok(ck) = Checkpoint::decode(&sealed(body.clone())) {
            // Anything accepted re-encodes into exactly what was read.
            prop_assert_eq!(ck.encode(), sealed(body));
        }
    }

    #[test]
    fn a_corrupted_payload_never_panics_its_reader(
        items in proptest::collection::vec(arb_item(), 1..6),
        pos in any::<usize>(),
        xor in 1u8..=255,
        kinds in proptest::collection::vec(any::<u8>(), 1..8),
    ) {
        let mut payload = blob_of(1, &items).payload().to_vec();
        if !payload.is_empty() {
            let at = pos % payload.len();
            payload[at] ^= xor;
        }
        let _ = read_items(&payload, &kinds);
    }

    #[test]
    fn an_oversized_prefix_is_rejected_before_allocation(
        claim in 64u32..=u32::MAX,
        // Null, bool, int and float tags and bytes: no string in the tail,
        // so whatever of it decodes allocates nothing either.
        tail in proptest::collection::vec(0u8..4, 0..32),
    ) {
        // A blob container whose payload length claims more than follows.
        let mut blob = claim.to_le_bytes().to_vec();
        blob.extend_from_slice(&[1, 0, 0, 0, 0, 0]);
        blob.extend_from_slice(&tail);
        let (bytes, out) = allocated_during(|| decode_container(&blob));
        prop_assert!(out.is_err());
        prop_assert_eq!(bytes, 0);

        // A tuple's arity, in a payload: the values there are read for the
        // error they end in, and nothing is allocated for the rest.
        let mut payload = claim.to_le_bytes().to_vec();
        payload.extend_from_slice(&tail);
        let (bytes, out) = allocated_during(|| BlobReader::new(&payload).tuple());
        prop_assert!(out.is_err());
        prop_assert_eq!(bytes, 0);

        // A string value's length.
        let mut payload = vec![4];
        payload.extend_from_slice(&claim.to_le_bytes());
        payload.extend_from_slice(&tail);
        let (bytes, out) = allocated_during(|| BlobReader::new(&payload).value());
        prop_assert!(out.is_err());
        prop_assert_eq!(bytes, 0);

        // A checkpoint's source count, and its operator count, under a
        // valid CRC.
        for counts in [vec![claim], vec![0, claim]] {
            let mut body = checkpoint_head();
            for n in counts {
                body.extend_from_slice(&n.to_le_bytes());
            }
            let file = sealed(body);
            let (bytes, out) = allocated_during(|| Checkpoint::decode(&file));
            prop_assert!(out.is_err());
            prop_assert_eq!(bytes, 0);
        }
    }
}
