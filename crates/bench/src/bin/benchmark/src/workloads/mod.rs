pub mod search_cold;
pub mod serve;
pub mod solve;
