#include "workload/trace.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string_view>

#include "sim/logging.hpp"
#include "sim/parse.hpp"

namespace transfw::wl {

namespace {

/** Replays one CTA's pre-parsed op list. */
class TraceStream : public CtaStream
{
  public:
    explicit TraceStream(const std::vector<MemOp> &ops) : ops_(ops) {}

    bool
    next(MemOp &op) override
    {
        if (index_ >= ops_.size())
            return false;
        op = ops_[index_++];
        return true;
    }

  private:
    const std::vector<MemOp> &ops_;
    std::size_t index_ = 0;
};

} // namespace

TraceWorkload::TraceWorkload(const std::string &path) : name_(path)
{
    std::ifstream in(path);
    if (!in)
        sim::fatal("cannot open trace file: " + path);

    std::string line;
    bool have_header = false;
    std::vector<std::pair<mem::Vpn, int>> touches; // (vpn, first cta)

    int line_no = 0;
    auto fail = [&](const std::string &what) {
        sim::fatal(sim::strfmt("%s:%d: %s", path.c_str(), line_no,
                               what.c_str()));
    };
    while (std::getline(in, line)) {
        ++line_no;
        std::istringstream is(line.substr(0, line.find('#')));
        std::vector<std::string> tok;
        for (std::string t; is >> t;)
            tok.push_back(std::move(t));
        if (tok.empty())
            continue; // blank/comment line

        if (!have_header) {
            std::optional<int> n = tok.size() == 2 && tok[0] == "trace-v1"
                                       ? sim::parseToken<int>(tok[1])
                                       : std::nullopt;
            if (!n || *n <= 0)
                fail("expected 'trace-v1 <numCtas>'");
            if (*n > kMaxCtas)
                fail(sim::strfmt("%d CTAs is above the cap of %d", *n,
                                 kMaxCtas));
            numCtas_ = *n;
            opsPerCta_.resize(static_cast<std::size_t>(numCtas_));
            have_header = true;
            continue;
        }

        if (tok.size() < 3)
            fail("malformed op line: expected '<cta> <gap> <access>...'");
        std::optional<int> cta = sim::parseToken<int>(tok[0]);
        if (!cta || *cta < 0 || *cta >= numCtas_)
            fail(sim::strfmt("malformed op line: CTA '%s' is not in 0..%d",
                             tok[0].c_str(), numCtas_ - 1));
        // instructions = 1 + gap must fit the op's 32-bit count too.
        std::optional<std::uint32_t> gap =
            sim::parseToken<std::uint32_t>(tok[1]);
        if (!gap || *gap == UINT32_MAX)
            fail(sim::strfmt("malformed op line: gap '%s' is not in 0..%u",
                             tok[1].c_str(), UINT32_MAX - 1));
        if (tok.size() - 2 > static_cast<std::size_t>(MemOp::kMaxPages))
            fail(sim::strfmt("more than %d accesses in one op",
                             MemOp::kMaxPages));
        MemOp op;
        op.computeGap = *gap;
        op.instructions = 1 + op.computeGap;
        for (std::size_t i = 2; i < tok.size(); ++i) {
            const std::string &access = tok[i];
            if (access.size() < 2 || (access[0] != 'r' && access[0] != 'w'))
                fail("bad access '" + access + "'");
            std::optional<mem::Vpn> vpn = sim::parseToken<mem::Vpn>(
                std::string_view(access).substr(1), 16);
            if (!vpn)
                fail("bad vpn in '" + access + "'");
            op.pages[static_cast<std::size_t>(op.numPages++)] = {
                *vpn, access[0] == 'w'};
            touches.emplace_back(*vpn, *cta);
        }
        opsPerCta_[static_cast<std::size_t>(*cta)].push_back(op);
    }
    if (!have_header)
        sim::fatal("empty trace file: " + path);

    // Distinct pages + first toucher, preserving first-touch order.
    std::vector<std::pair<mem::Vpn, int>> first_by_page;
    {
        std::vector<std::pair<mem::Vpn, int>> sorted = touches;
        std::stable_sort(sorted.begin(), sorted.end(),
                         [](const auto &a, const auto &b) {
                             return a.first < b.first;
                         });
        for (const auto &t : sorted) {
            if (first_by_page.empty() ||
                first_by_page.back().first != t.first)
                first_by_page.push_back(t);
        }
    }
    for (const auto &[vpn, cta] : first_by_page) {
        pages_.push_back(vpn);
        firstToucher_.push_back(cta);
    }
    baseVpn_ = pages_.empty() ? 0 : pages_.front();
}

std::unique_ptr<CtaStream>
TraceWorkload::makeStream(int cta, int num_gpus, std::uint64_t seed) const
{
    (void)num_gpus;
    (void)seed;
    return std::make_unique<TraceStream>(
        opsPerCta_[static_cast<std::size_t>(cta)]);
}

mem::DeviceId
TraceWorkload::initialOwner(mem::Vpn vpn4k, int num_gpus) const
{
    auto it = std::lower_bound(pages_.begin(), pages_.end(), vpn4k);
    if (it == pages_.end() || *it != vpn4k)
        return mem::kCpuDevice;
    int cta = firstToucher_[static_cast<std::size_t>(
        std::distance(pages_.begin(), it))];
    return homeGpu(cta, numCtas_, num_gpus);
}

void
TraceWorkload::forEachPage(
    const std::function<void(mem::Vpn)> &fn) const
{
    for (mem::Vpn vpn : pages_)
        fn(vpn);
}

std::uint64_t
TraceWorkload::totalOps() const
{
    std::uint64_t total = 0;
    for (const auto &ops : opsPerCta_)
        total += ops.size();
    return total;
}

void
recordTrace(const Workload &workload, int num_gpus, std::uint64_t seed,
            const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        sim::fatal("cannot write trace file: " + path);
    out << "# recorded from workload '" << workload.name() << "'\n";
    out << "trace-v1 " << workload.numCtas() << "\n";
    for (int cta = 0; cta < workload.numCtas(); ++cta) {
        auto stream = workload.makeStream(cta, num_gpus, seed);
        MemOp op;
        while (stream->next(op)) {
            out << cta << ' ' << op.computeGap;
            for (int i = 0; i < op.numPages; ++i) {
                const PageAccess &access =
                    op.pages[static_cast<std::size_t>(i)];
                out << ' ' << (access.write ? 'w' : 'r') << std::hex
                    << access.vpn << std::dec;
            }
            out << '\n';
        }
    }
}

} // namespace transfw::wl
