/// @file spans.hpp
/// @brief In-memory span recorder of the traced run. A span carries a name,
/// start and end (steady clock), its parent span and the op id it belongs
/// to. Spans are opened by the workloads around KaMPIng calls, simulator
/// calls and whole application solutions, and by the link-time MPI wrappers
/// (spans.cpp) around every outermost MPI_* entry. Each rank thread records
/// into its own buffer; self times are aggregated as spans close, and the
/// first kMaxStored spans per rank are written out when the run ends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pb::spans {

/// Turns recording on or off for every attached thread.
void set_enabled(bool on);
bool enabled();

/// Gives the calling thread a recorder labelled `rank` (until detach()).
void attach(int rank);
/// Hands the calling thread's recorder to the process-wide collection.
void detach();
/// Sets the op id stamped on the calling thread's next spans.
void set_op(std::uint32_t op);

/// Opens a span for the lifetime of the object (no-op when disabled).
class Scope {
public:
    explicit Scope(char const* name);
    ~Scope();
    Scope(Scope const&) = delete;
    Scope& operator=(Scope const&) = delete;

private:
    bool open_ = false;
};

/// Self time of one span name summed over every detached recorder.
struct SelfTime {
    std::string name;
    std::uint64_t count = 0;
    double self_ns = 0;
    double total_ns = 0;
};
std::vector<SelfTime> self_times();
/// Spans recorded beyond the stored cap (aggregated, not written).
std::uint64_t dropped();

/// Writes every stored span as tab-separated lines
/// `rank op name start_ns end_ns parent` into `path`. Returns false on I/O
/// failure.
bool write_tsv(std::string const& path);

/// Forgets every detached recorder.
void reset();

}  // namespace pb::spans
