//! `blazr-serve`: a fault-tolerant HTTP/1.1 query server for blazr
//! stores — "compressed arrays you can query while they are damaged,
//! over a network that is also damaged".
//!
//! Zero dependencies beyond the workspace, in the shim style: the HTTP
//! layer is hand-rolled over `std::net`, small enough to audit and to
//! fault-inject exhaustively. Three layers:
//!
//! * [`transport`] — the [`transport::Listener`]/[`transport::Conn`]
//!   seam (TCP, in-process pipes, and [`transport::FaultyTransport`],
//!   a network adapter over the same `blazr_util::fault::Script` that
//!   drives storage faults);
//! * [`http`] — bounded request parsing, deadline-aware retried I/O,
//!   and a tiny client for tests and the ledger;
//! * [`server`] — the bounded-queue thread pool: admission control
//!   (`429` + `Retry-After` when full), per-request deadlines that
//!   reach into the store scan through `QueryOptions::cancel`,
//!   degraded-mode `206` responses carrying the `DegradationReport`,
//!   `/healthz` / `/readyz` / `/metrics`, and graceful drain.

pub mod http;
pub mod server;
pub mod transport;

pub use blazr_store::encode_query_body;
pub use http::{http_get, ClientResponse, Deadline, Request, Response};
pub use server::{ServeConfig, Server, ServerStats};
pub use transport::{
    Conn, FaultyTransport, Listener, MemConn, MemTransport, TcpConn, TcpTransport, TransportOp,
};
