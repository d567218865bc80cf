#include "os/dma.hh"

#include "common/logging.hh"

namespace sdpcm {

std::vector<std::uint64_t>
DmaController::framesForTransfer(const NmRatio& tag,
                                 std::uint64_t start_frame,
                                 std::uint64_t pages) const
{
    if (!tagSupported(tag)) {
        SDPCM_FATAL("DMA supports only (1:1) and (1:2) allocations, got ",
                    tag.toString());
    }
    const NmPolicy policy(tag);
    const unsigned frames_per_strip = DimmGeometry::framesPerStrip();
    SDPCM_ASSERT(policy.stripInUse(start_frame / frames_per_strip),
                 "DMA start frame lies in a no-use strip");

    std::vector<std::uint64_t> frames;
    frames.reserve(pages);
    std::uint64_t frame = start_frame;
    const std::uint64_t total = geometry_.pageFrames();
    while (frames.size() < pages) {
        SDPCM_ASSERT(frame < total, "DMA transfer runs past memory end");
        if (policy.stripInUse(frame / frames_per_strip)) {
            frames.push_back(frame);
            frame += 1;
        } else {
            // Skip the whole no-use strip.
            frame = (frame / frames_per_strip + 1) * frames_per_strip;
        }
    }
    return frames;
}

} // namespace sdpcm
