//! Client-side retry of `Overloaded` rejections, tested against a scripted
//! server: a raw `TcpListener` that answers each request frame from a
//! pre-programmed list of responses, so the test controls exactly how many
//! rejections a call sees before it succeeds.

// Tests and examples may panic freely; the workspace-level panic-policy
// denies target library and binary code.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

use dssddi_serving::wire::{encode_response, read_frame, write_frame};
use dssddi_serving::{Client, ErrorCode, Response, RetryPolicy, ServingError};

/// Spawns a single-connection server that answers successive request frames
/// with `script`, in order, then closes. Returns its address and the thread
/// handle (joined for panic propagation).
fn scripted_server(script: Vec<Response>) -> (SocketAddr, std::thread::JoinHandle<usize>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind scripted server");
    let addr = listener.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut served = 0;
        for response in &script {
            if read_frame(&mut stream, 1, None).is_err() {
                break; // client gave up early; that's the test's business
            }
            write_frame(&mut stream, &encode_response(response)).expect("write response");
            served += 1;
        }
        served
    });
    (addr, handle)
}

fn overloaded() -> Response {
    Response::Error {
        code: ErrorCode::Overloaded,
        message: "per-model rate limit exhausted".to_string(),
    }
}

#[test]
fn retries_overloaded_until_success_within_budget() {
    // Two rejections, then the real answer: a 3-attempt policy succeeds.
    let script = vec![overloaded(), overloaded(), Response::ListModels(Vec::new())];
    let (addr, handle) = scripted_server(script);
    let mut client = Client::connect(addr).expect("connect");
    client.set_retry_policy(
        Some(RetryPolicy::new(
            3,
            Duration::from_millis(2),
            Duration::from_millis(20),
        )),
        42,
    );
    let models = client.list_models().expect("third attempt succeeds");
    assert!(models.is_empty());
    assert_eq!(
        handle.join().expect("no panic"),
        3,
        "exactly 3 attempts hit the wire"
    );
}

#[test]
fn gives_up_after_max_attempts_with_the_typed_error() {
    // More rejections than the budget: the final error is the typed
    // Overloaded rejection, after exactly max_attempts wire exchanges.
    let script = vec![overloaded(), overloaded(), overloaded(), overloaded()];
    let (addr, handle) = scripted_server(script);
    let mut client = Client::connect(addr).expect("connect");
    client.set_retry_policy(
        Some(RetryPolicy::new(
            2,
            Duration::from_millis(2),
            Duration::from_millis(20),
        )),
        7,
    );
    match client.list_models() {
        Err(ServingError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Overloaded),
        other => panic!("expected Remote Overloaded, got {other:?}"),
    }
    drop(client);
    assert_eq!(
        handle.join().expect("no panic"),
        2,
        "budget caps the attempts"
    );
}

#[test]
fn without_a_policy_overloaded_fails_fast() {
    let script = vec![overloaded()];
    let (addr, handle) = scripted_server(script);
    let mut client = Client::connect(addr).expect("connect");
    match client.list_models() {
        Err(ServingError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Overloaded),
        other => panic!("expected Remote Overloaded, got {other:?}"),
    }
    drop(client);
    assert_eq!(
        handle.join().expect("no panic"),
        1,
        "no retry without a policy"
    );
}

#[test]
fn non_overloaded_errors_are_never_retried() {
    // A retry policy must not mask caller bugs: UnknownModel comes straight
    // back on the first attempt.
    let script = vec![Response::Error {
        code: ErrorCode::UnknownModel,
        message: "unknown model".to_string(),
    }];
    let (addr, handle) = scripted_server(script);
    let mut client = Client::connect(addr).expect("connect");
    client.set_retry_policy(
        Some(RetryPolicy::new(
            5,
            Duration::from_millis(2),
            Duration::from_millis(20),
        )),
        1,
    );
    match client.list_models() {
        Err(ServingError::Remote { code, .. }) => assert_eq!(code, ErrorCode::UnknownModel),
        other => panic!("expected Remote UnknownModel, got {other:?}"),
    }
    drop(client);
    assert_eq!(handle.join().expect("no panic"), 1);
}

#[test]
fn backoff_grows_and_stays_bounded() {
    // Behavioural check on the schedule: with base 10 ms / max 40 ms and 4
    // attempts, the three backoffs (jittered into [0.5, 1.0) of 10, 20,
    // 40 ms) sum to at least 35 ms and at most 70 ms of sleeping.
    let script = vec![overloaded(), overloaded(), overloaded(), overloaded()];
    let (addr, handle) = scripted_server(script);
    let mut client = Client::connect(addr).expect("connect");
    client.set_retry_policy(
        Some(RetryPolicy::new(
            4,
            Duration::from_millis(10),
            Duration::from_millis(40),
        )),
        99,
    );
    let start = Instant::now();
    assert!(client.list_models().is_err());
    let elapsed = start.elapsed();
    assert!(
        elapsed >= Duration::from_millis(35),
        "backoffs too short: {elapsed:?}"
    );
    assert!(
        elapsed < Duration::from_secs(2),
        "backoffs unbounded: {elapsed:?}"
    );
    drop(client);
    assert_eq!(handle.join().expect("no panic"), 4);
}
