#include "zero_pages.hh"

#include <sys/mman.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "sim/logging.hh"

namespace tengig {

ZeroPages::ZeroPages(std::size_t bytes, const char *what)
{
    if (!bytes)
        return;
    void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    fatal_if(p == MAP_FAILED, "[", what, "] cannot map ", bytes,
             " B of backing store: ", std::strerror(errno));
    base = static_cast<std::uint8_t *>(p);
    len = bytes;
}

ZeroPages::~ZeroPages() { release(); }

ZeroPages::ZeroPages(ZeroPages &&other) noexcept
    : base(std::exchange(other.base, nullptr)),
      len(std::exchange(other.len, 0))
{}

ZeroPages &
ZeroPages::operator=(ZeroPages &&other) noexcept
{
    if (this != &other) {
        release();
        base = std::exchange(other.base, nullptr);
        len = std::exchange(other.len, 0);
    }
    return *this;
}

void
ZeroPages::release() noexcept
{
    if (base)
        munmap(base, len);
    base = nullptr;
    len = 0;
}

} // namespace tengig
