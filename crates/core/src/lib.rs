//! # LCI — Lightweight Communication Interface
//!
//! A Rust reproduction of the communication runtime from *"A Lightweight
//! Communication Runtime for Distributed Graph Analytics"* (Dang et al.,
//! IPDPS 2018). LCI is a thin layer over RDMA-capable network hardware,
//! purpose-built for the irregular, many-threaded communication patterns of
//! distributed graph analytics:
//!
//! * **No tag matching, no ordering.** Messages surface to the upper layer
//!   in first-packet-arrival order (*first-packet policy*); frameworks that
//!   process messages in any order — like the gather-communicate-scatter
//!   runtimes of Abelian and Gemini — pay nothing for ordering they don't
//!   need.
//! * **Retryable initiation instead of fatal exhaustion.** `SEND-ENQ` fails
//!   (returns an error) when packets or injection slots run out; the caller
//!   retries. MPI implementations crash or hang in the same situation.
//! * **Completion by flag, not by call.** Once initiated, an operation
//!   completes when [`Device::progress`] flips an atomic status flag;
//!   testing a request costs one load, not an `MPI_Test` network poll.
//!   Progress is an explicit call: a host that waits on its device drives
//!   it, then yields.
//! * **Receiving without a size.** `RECV-DEQ` pops whatever arrived —
//!   source, tag, and size come with the packet, eliminating the
//!   probe/allocate/receive dance of `MPI_Iprobe`.
//!
//! ## Quickstart
//!
//! ```
//! use lci::{LciConfig, LciWorld};
//! use lci_fabric::FabricConfig;
//! use bytes::Bytes;
//!
//! let world = LciWorld::new(FabricConfig::test(2), LciConfig::default());
//! let a = world.device(0);
//! let b = world.device(1);
//!
//! // Rank 0 sends; eager messages complete at initiation.
//! let req = loop {
//!     match a.send_enq(Bytes::from_static(b"hello"), 1, 7) {
//!         Ok(r) => break r,
//!         Err(e) if e.is_retryable() => {
//!             a.progress();
//!             std::thread::yield_now();
//!         }
//!         Err(e) => panic!("{e}"),
//!     }
//! };
//! assert!(req.is_done());
//!
//! // Rank 1 drives its device and dequeues whatever arrived first.
//! let recv = loop {
//!     b.progress();
//!     if let Some(r) = b.recv_deq() {
//!         break r;
//!     }
//!     std::thread::yield_now();
//! };
//! assert_eq!(recv.src(), 0);
//! assert_eq!(recv.tag(), 7);
//! assert_eq!(recv.take_data().unwrap(), b"hello");
//! ```

#![warn(missing_docs)]

mod config;
mod device;
mod pool;
pub mod protocol;
mod queue;
mod request;
mod world;

pub use config::{LciConfig, PutMode};
pub use device::{Device, DeviceStats, EnqError};
pub use pool::{Packet, PacketPool, PACKET_HEADROOM};
pub use protocol::{MAX_SIZE, MAX_TAG};
pub use queue::MpmcQueue;
pub use request::{RecvData, RecvRequest, SendRequest};
pub use world::LciWorld;
